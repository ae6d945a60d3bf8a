//! Shared-intermediate batch detection engine.
//!
//! Scoring one image with the detection methods independently recomputes
//! everything from scratch: the scaling detectors build four resampling
//! plans and run two round trips, each SSIM evaluation blurs the *input*
//! image again, and both frequency-domain methods transform the image
//! separately. [`DetectionEngine`] scores an image with every enabled
//! method in one pass and shares the intermediates instead:
//!
//! * one round trip through cached resampling plans
//!   ([`ScalerCache`]) serves both scaling metrics,
//! * one rank-filter pass serves both filtering metrics,
//! * one [`SsimReference`] (precomputed `blur(I)`, `blur(I²)`) serves the
//!   scaling *and* filtering SSIM scores, with the blurs on the fast
//!   scratch-buffer convolution path,
//! * one planned DFT serves the CSP count (via the fused
//!   [`count_csp_in_spectrum_with_mags`] pipeline) **and** the radial
//!   peak-excess score, which also share one `log(1 + |F|)` buffer — with
//!   the engine's default rectangular peak window the windowing step is
//!   the identity, so no second transform runs.
//!
//! The methods themselves live in the typed registry
//! ([`MethodId`]): scores come back as a dense
//! [`ScoreVector`] and the set of methods to run is a [`MethodSet`]
//! ([`DetectionEngine::with_methods`]).
//!
//! Every shared path is bit-identical to its staged counterpart, so engine
//! scores equal the naive per-method detectors exactly — asserted against
//! [`DetectionEngine::reference_score`] by the tests in this module and the
//! crate's property tests. The naive detectors stay as that reference (and
//! the honest cold baseline for the benchmark suite); production code
//! scores only through the engine pass.

use crate::error::{ScoreError, ScoreFault};
use crate::faults::{FaultKind, FaultPlan};
use crate::filtering::FilteringDetector;
use crate::method::{MethodId, MethodSet, MetricKind, ScoreVector};
use crate::parallel::parallel_map_indices;
use crate::peak_excess::PeakExcessDetector;
use crate::scaling::ScalingDetector;
use crate::steganalysis::SteganalysisDetector;
use crate::stream::{ChunkDriver, FnSource, ImageSource, StreamConfig, StreamSummary};
use crate::DetectError;
use decamouflage_imaging::filter::{rank_filter, RankKind};
use decamouflage_imaging::scale::{ScaleAlgorithm, ScalerCache};
use decamouflage_imaging::{Image, Size};
use decamouflage_metrics::{mse, SsimConfig, SsimReference};
use decamouflage_spectral::csp::{count_csp_in_spectrum_with_mags, CspConfig};
use decamouflage_spectral::dft2d::dft2_planned;
use decamouflage_spectral::radial::peak_excess;
use decamouflage_spectral::window::{apply_window, WindowKind};
use decamouflage_telemetry::{Counter, HistogramHandle, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Pre-resolved telemetry handles for the engine's hot path. Resolving
/// the `(name, labels)` keys once at construction keeps scoring free of
/// registry lookups; with a disabled [`Telemetry`] every handle is a
/// no-op and no clock is ever read, so scores stay bit-identical (the
/// bench asserts this).
#[derive(Debug, Clone, Default)]
struct EngineMetrics {
    telemetry: Telemetry,
    /// `decam_engine_score_seconds`: full engine pass latency.
    score_seconds: HistogramHandle,
    /// `decam_engine_stage_seconds{stage=...}`: shared-stage latencies.
    validate: HistogramHandle,
    scale_round_trip: HistogramHandle,
    rank_filter: HistogramHandle,
    ssim_reference: HistogramHandle,
    dft: HistogramHandle,
    /// `decam_method_score_seconds{method=...}`, indexed by [`MethodId`].
    /// For fused methods this is the *incremental* cost on top of the
    /// shared stages above.
    method_seconds: [HistogramHandle; MethodId::COUNT],
    /// `decam_engine_scored_total`: successfully scored images.
    scored_total: Counter,
}

impl EngineMetrics {
    fn new(telemetry: Telemetry) -> Self {
        let stage = |name| telemetry.histogram("decam_engine_stage_seconds", &[("stage", name)]);
        Self {
            score_seconds: telemetry.histogram("decam_engine_score_seconds", &[]),
            validate: stage("validate"),
            scale_round_trip: stage("scale_round_trip"),
            rank_filter: stage("rank_filter"),
            ssim_reference: stage("ssim_reference"),
            dft: stage("dft"),
            method_seconds: std::array::from_fn(|index| {
                telemetry.histogram(
                    "decam_method_score_seconds",
                    &[("method", MethodId::ALL[index].name())],
                )
            }),
            scored_total: telemetry.counter("decam_engine_scored_total", &[]),
            telemetry,
        }
    }

    /// Counts one quarantined image under its fault-kind label. The
    /// label set is small and bounded by the [`ScoreFault`] taxonomy, so
    /// the registry lookup on this cold path is fine.
    fn quarantined(&self, fault: &ScoreFault) {
        self.telemetry.counter("decam_engine_quarantined_total", &[("fault", fault.kind())]).inc();
    }

    fn method(&self, id: MethodId) -> &HistogramHandle {
        &self.method_seconds[id as usize]
    }
}

/// The per-image scores the engine produces — an alias kept from the days
/// when this was a fixed five-field struct. Use the [`ScoreVector`] API
/// (`get`, `iter`, indexing by [`MethodId`]) or the field-style shims
/// (`scaling_mse()`, `csp()`, …).
pub type EngineScores = ScoreVector;

/// Scores plus the shared intermediate images, for callers that feed
/// additional scorers (PSNR, colour histograms, …) from the same round
/// trip.
#[derive(Debug, Clone)]
pub struct EngineArtifacts {
    /// The image downscaled to the CNN input size.
    pub downscaled: Image,
    /// The round-tripped image `upscale(downscale(I))`.
    pub round_tripped: Image,
    /// The rank-filtered image.
    pub filtered: Image,
    /// The centred log-magnitude spectrum the peak-excess score was read
    /// from. `Some` iff [`MethodId::PeakExcess`] is enabled.
    pub centered_spectrum: Option<Image>,
    /// The engine scores (`NaN` for disabled methods).
    pub scores: ScoreVector,
}

/// Engine scores for a full benign + attack corpus.
#[derive(Debug, Clone)]
pub struct EngineCorpus {
    /// Scores of the benign samples, in index order.
    pub benign: Vec<ScoreVector>,
    /// Scores of the attack samples, in index order.
    pub attack: Vec<ScoreVector>,
}

impl EngineCorpus {
    /// The benign scores of one method, in index order.
    pub fn benign_column(&self, id: MethodId) -> Vec<f64> {
        self.benign.iter().map(|s| s.get(id)).collect()
    }

    /// The attack scores of one method, in index order.
    pub fn attack_column(&self, id: MethodId) -> Vec<f64> {
        self.attack.iter().map(|s| s.get(id)).collect()
    }
}

/// Aggregate counters over a [`BatchOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchCounts {
    /// Images that scored successfully.
    pub scored: usize,
    /// Images quarantined with a [`ScoreError`], total.
    pub quarantined: usize,
    /// Quarantined images from the benign half.
    pub benign_quarantined: usize,
    /// Quarantined images from the attack half.
    pub attack_quarantined: usize,
}

/// Per-image results of a fault-isolated corpus scoring run
/// ([`DetectionEngine::score_corpus_resilient`]): every slot is either the
/// image's [`ScoreVector`] or the structured [`ScoreError`] that
/// quarantined it. One poisoned image costs exactly one slot.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-image results of the benign samples, in index order. Slot `i`
    /// corresponds to batch fan-out index `i`.
    pub benign: Vec<Result<ScoreVector, ScoreError>>,
    /// Per-image results of the attack samples, in index order. Slot `i`
    /// corresponds to batch fan-out index `count + i`.
    pub attack: Vec<Result<ScoreVector, ScoreError>>,
}

impl BatchOutcome {
    /// Aggregate scored/quarantined counters.
    pub fn counts(&self) -> BatchCounts {
        let benign_quarantined = self.benign.iter().filter(|r| r.is_err()).count();
        let attack_quarantined = self.attack.iter().filter(|r| r.is_err()).count();
        BatchCounts {
            scored: self.benign.len() + self.attack.len() - benign_quarantined - attack_quarantined,
            quarantined: benign_quarantined + attack_quarantined,
            benign_quarantined,
            attack_quarantined,
        }
    }

    /// The quarantine errors of both halves (benign first), in index order.
    pub fn quarantined(&self) -> impl Iterator<Item = &ScoreError> {
        self.benign.iter().chain(self.attack.iter()).filter_map(|result| result.as_ref().err())
    }

    /// The surviving benign scores of one method, skipping quarantined
    /// slots.
    pub fn benign_column(&self, id: MethodId) -> Vec<f64> {
        self.benign.iter().filter_map(|r| r.as_ref().ok()).map(|s| s.get(id)).collect()
    }

    /// The surviving attack scores of one method, skipping quarantined
    /// slots.
    pub fn attack_column(&self, id: MethodId) -> Vec<f64> {
        self.attack.iter().filter_map(|r| r.as_ref().ok()).map(|s| s.get(id)).collect()
    }

    /// Converts into a fully scored [`EngineCorpus`], failing fast on the
    /// first quarantined slot in fan-out order (all benign indices before
    /// all attack indices) — the contract of the pre-quarantine
    /// [`DetectionEngine::score_corpus`].
    ///
    /// # Errors
    ///
    /// The first [`ScoreError`] in fan-out order, converted through
    /// [`DetectError::from`] (a plain scoring failure unwraps back to the
    /// original [`DetectError`]).
    pub fn into_result(self) -> Result<EngineCorpus, DetectError> {
        let unwrap_half = |half: Vec<Result<ScoreVector, ScoreError>>| {
            half.into_iter().collect::<Result<Vec<ScoreVector>, ScoreError>>()
        };
        let benign = unwrap_half(self.benign)?;
        let attack = unwrap_half(self.attack)?;
        Ok(EngineCorpus { benign, attack })
    }
}

/// Scores one image with every enabled detection method while sharing
/// intermediates (see the module docs).
///
/// # Example
///
/// ```
/// use decamouflage_core::{DetectionEngine, MethodId};
/// use decamouflage_imaging::{Image, Size};
///
/// # fn main() -> Result<(), decamouflage_core::DetectError> {
/// let engine = DetectionEngine::new(Size::square(16));
/// let image = Image::from_fn_gray(64, 64, |x, y| (((x + y) * 2) % 200) as f64 + 20.0);
/// let scores = engine.score(&image)?;
/// assert!(scores.csp() >= 1.0);
/// assert!(scores.get(MethodId::PeakExcess).is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DetectionEngine {
    target: Size,
    algorithm: ScaleAlgorithm,
    ssim_config: SsimConfig,
    filter_window: usize,
    filter_rank: RankKind,
    csp_config: CspConfig,
    peak_window: WindowKind,
    methods: MethodSet,
    faults: Option<Arc<FaultPlan>>,
    metrics: EngineMetrics,
}

impl DetectionEngine {
    /// Creates an engine with the reproduction's standard configuration for
    /// a CNN input size: a bilinear defender round trip, the default SSIM
    /// window, the paper's 2×2 minimum filter, the target-tuned CSP
    /// configuration of [`SteganalysisDetector::for_target`], a rectangular
    /// peak-excess window (so the CSP spectrum is reused as-is) and every
    /// registered method enabled.
    pub fn new(target: Size) -> Self {
        Self {
            target,
            algorithm: ScaleAlgorithm::Bilinear,
            ssim_config: SsimConfig::default(),
            filter_window: 2,
            filter_rank: RankKind::Minimum,
            csp_config: SteganalysisDetector::for_target(target).config().clone(),
            peak_window: WindowKind::Rectangular,
            methods: MethodSet::all(),
            faults: None,
            metrics: EngineMetrics::new(decamouflage_telemetry::global()),
        }
    }

    /// Overrides the round-trip scaling algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: ScaleAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Overrides the SSIM parameters.
    #[must_use]
    pub fn with_ssim_config(mut self, config: SsimConfig) -> Self {
        self.ssim_config = config;
        self
    }

    /// Overrides the rank-filter window and kind.
    #[must_use]
    pub fn with_filter(mut self, window: usize, rank: RankKind) -> Self {
        self.filter_window = window;
        self.filter_rank = rank;
        self
    }

    /// Overrides the CSP configuration.
    #[must_use]
    pub fn with_csp_config(mut self, config: CspConfig) -> Self {
        self.csp_config = config;
        self
    }

    /// Overrides the peak-excess window function. Anything other than
    /// [`WindowKind::Rectangular`] costs a second DFT per image, because
    /// the CSP spectrum (computed on the unwindowed image) can no longer
    /// be shared.
    #[must_use]
    pub fn with_peak_window(mut self, window: WindowKind) -> Self {
        self.peak_window = window;
        self
    }

    /// Restricts which methods [`DetectionEngine::score`] runs. Disabled
    /// methods score `NaN`.
    #[must_use]
    pub fn with_methods(mut self, methods: MethodSet) -> Self {
        self.methods = methods;
        self
    }

    /// Arms a deterministic [`FaultPlan`] on the resilient batch and
    /// stream paths: [`DetectionEngine::score_stream`] (and therefore
    /// [`DetectionEngine::score_corpus_resilient`], its eager facade)
    /// fires the plan entry armed at each stream/fan-out index *inside*
    /// the per-image isolation boundary, so an injected panic travels the
    /// exact worker-pool → `catch_unwind` → quarantine route a real deep
    /// panic would. An armed fault outranks a failed pull at the same
    /// index. The fail-fast APIs and single-image scoring ignore the plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a [`Telemetry`] handle: an enabled handle records the
    /// engine's per-stage and per-method latencies, scored/quarantined
    /// counters into its registry; the default is the process-global
    /// handle at construction time
    /// ([`decamouflage_telemetry::global`]), which is disabled unless
    /// [`decamouflage_telemetry::install_global`] ran first. Telemetry
    /// never changes scores — only observes them.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.metrics = EngineMetrics::new(telemetry);
        self
    }

    /// The telemetry handle this engine records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.metrics.telemetry
    }

    /// The CNN input size the round trip passes through.
    pub const fn target(&self) -> Size {
        self.target
    }

    /// The round-trip scaling algorithm.
    pub const fn algorithm(&self) -> ScaleAlgorithm {
        self.algorithm
    }

    /// The peak-excess window function.
    pub const fn peak_window(&self) -> WindowKind {
        self.peak_window
    }

    /// The enabled methods.
    pub const fn methods(&self) -> MethodSet {
        self.methods
    }

    /// The naive reference score of one method under this engine's
    /// configuration: the standalone detector computed from scratch, with
    /// no shared intermediates. Every engine score equals it bit for bit;
    /// it exists as the oracle the engine is tested against and as the
    /// cold baseline of the benchmarks, and scores `id` whether or not the
    /// engine enables it.
    ///
    /// # Errors
    ///
    /// Propagates the detector's imaging and metric failures.
    pub fn reference_score(&self, id: MethodId, image: &Image) -> Result<f64, DetectError> {
        let scaling = |metric| {
            ScalingDetector::new(self.target, self.algorithm, metric)
                .with_ssim_config(self.ssim_config.clone())
        };
        let filtering = |metric| {
            FilteringDetector::new(metric)
                .with_window(self.filter_window)
                .with_rank(self.filter_rank)
                .with_ssim_config(self.ssim_config.clone())
        };
        match id {
            MethodId::ScalingMse => scaling(MetricKind::Mse).score(image),
            MethodId::ScalingSsim => scaling(MetricKind::Ssim).score(image),
            MethodId::FilteringMse => filtering(MetricKind::Mse).score(image),
            MethodId::FilteringSsim => filtering(MetricKind::Ssim).score(image),
            MethodId::Csp => {
                SteganalysisDetector::with_config(self.csp_config.clone()).score(image)
            }
            MethodId::PeakExcess => PeakExcessDetector::for_target(self.target)
                .with_window(self.peak_window)
                .score(image),
            #[cfg(test)]
            MethodId::DummyMean => Ok(dummy_mean(image)),
        }
    }

    /// Scores `image` with every enabled method, returning the shared
    /// intermediates alongside the scores. The spatial intermediates
    /// (round trip, filtered image) are always produced — they are the
    /// artifact contract downstream scorers rely on.
    ///
    /// # Errors
    ///
    /// Propagates imaging and metric failures ([`DetectError::Imaging`] /
    /// [`DetectError::Metric`]).
    pub fn score_with_artifacts(&self, image: &Image) -> Result<EngineArtifacts, DetectError> {
        let _total = self.metrics.score_seconds.span();
        let cache = ScalerCache::global();
        let src = image.size();
        // One round trip through cached plans; `downscaled` is computed
        // once and reused for the upscale leg.
        let (downscaled, round_tripped) = {
            let _stage = self.metrics.scale_round_trip.span();
            let downscaled = cache.get(src, self.target, self.algorithm)?.apply(image)?;
            let round_tripped = cache.get(self.target, src, self.algorithm)?.apply(&downscaled)?;
            (downscaled, round_tripped)
        };
        let filtered = {
            let _stage = self.metrics.rank_filter.span();
            rank_filter(image, self.filter_window, self.filter_rank)?
        };

        let mut scores = ScoreVector::splat(f64::NAN);

        if self.methods.contains(MethodId::ScalingMse) {
            let _method = self.metrics.method(MethodId::ScalingMse).span();
            scores.set(MethodId::ScalingMse, mse(image, &round_tripped)?);
        }
        if self.methods.contains(MethodId::FilteringMse) {
            let _method = self.metrics.method(MethodId::FilteringMse).span();
            scores.set(MethodId::FilteringMse, mse(image, &filtered)?);
        }
        if self.methods.contains(MethodId::ScalingSsim)
            || self.methods.contains(MethodId::FilteringSsim)
        {
            // One reference-side SSIM precomputation serves both comparisons.
            let reference = {
                let _stage = self.metrics.ssim_reference.span();
                SsimReference::new(image, &self.ssim_config)?
            };
            if self.methods.contains(MethodId::ScalingSsim) {
                let _method = self.metrics.method(MethodId::ScalingSsim).span();
                scores.set(MethodId::ScalingSsim, reference.score_against(&round_tripped)?);
            }
            if self.methods.contains(MethodId::FilteringSsim) {
                let _method = self.metrics.method(MethodId::FilteringSsim).span();
                scores.set(MethodId::FilteringSsim, reference.score_against(&filtered)?);
            }
        }

        let mut centered_spectrum = None;
        if self.methods.contains(MethodId::Csp) || self.methods.contains(MethodId::PeakExcess) {
            // One shared gray view serves both frequency-domain methods:
            // Gray inputs are borrowed as-is (zero copies), RGB inputs pay
            // for exactly one fused luma pass — never one per method.
            let gray: std::borrow::Cow<'_, Image> = if image.channel_count() == 1 {
                std::borrow::Cow::Borrowed(image)
            } else {
                std::borrow::Cow::Owned(
                    Image::from_gray_plane(
                        image.width(),
                        image.height(),
                        image.luma().into_owned(),
                    )
                    .expect("luma plane is sized width*height"),
                )
            };
            // One planned DFT serves both frequency-domain methods, and —
            // since both start from `log(1 + |F|)` of the same grid — one
            // log-magnitude buffer serves their fused passes (the logs are
            // the expensive half of each).
            let (spectrum, mags) = {
                let _stage = self.metrics.dft.span();
                let spectrum = dft2_planned(&gray);
                let mags = spectrum.log_magnitudes();
                (spectrum, mags)
            };
            if self.methods.contains(MethodId::Csp) {
                let _method = self.metrics.method(MethodId::Csp).span();
                scores.set(
                    MethodId::Csp,
                    count_csp_in_spectrum_with_mags(&spectrum, &mags, &self.csp_config).count
                        as f64,
                );
            }
            if self.methods.contains(MethodId::PeakExcess) {
                let _method = self.metrics.method(MethodId::PeakExcess).span();
                let peak =
                    PeakExcessDetector::for_target(self.target).with_window(self.peak_window);
                let centred = if self.peak_window == WindowKind::Rectangular {
                    // A rectangular window is the identity, so the CSP
                    // plan's DFT *is* the windowed spectrum — shift and
                    // log-normalise its shared magnitudes instead of
                    // transforming again.
                    spectrum.centered_log_magnitude_from(&mags)
                } else {
                    dft2_planned(&apply_window(&gray, self.peak_window)).centered_log_magnitude()
                };
                let (min_r, max_r) = peak.radii_for(image);
                scores.set(MethodId::PeakExcess, peak_excess(&centred, min_r.max(1), max_r.max(2)));
                centered_spectrum = Some(centred);
            }
        }

        #[cfg(test)]
        if self.methods.contains(MethodId::DummyMean) {
            scores.set(MethodId::DummyMean, dummy_mean(image));
        }

        self.metrics.scored_total.inc();
        Ok(EngineArtifacts { downscaled, round_tripped, filtered, centered_spectrum, scores })
    }

    /// Scores `image` with every enabled method.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DetectionEngine::score_with_artifacts`].
    pub fn score(&self, image: &Image) -> Result<ScoreVector, DetectError> {
        Ok(self.score_with_artifacts(image)?.scores)
    }

    /// Input quarantine: rejects images that cannot be scored meaningfully
    /// under this engine's configuration *before* any imaging or spectral
    /// primitive runs on them. Checks, in order:
    ///
    /// 1. zero-area pixel grids ([`ScoreFault::DegenerateDimensions`]),
    /// 2. NaN / infinite pixel samples ([`ScoreFault::NonFinitePixel`]) —
    ///    these would silently propagate into every score,
    /// 3. images smaller than the configured rank-filter window, SSIM
    ///    window, or spectrum plan for the respectively enabled methods
    ///    ([`ScoreFault::BelowMinimumSize`], attributed to the first
    ///    enabled offending [`MethodId`]).
    ///
    /// # Errors
    ///
    /// The first failed check as a structured [`ScoreError`] (index `0`;
    /// batch callers re-address it with [`ScoreError::at_index`]).
    pub fn validate_image(&self, image: &Image) -> Result<(), ScoreError> {
        let _stage = self.metrics.validate.span();
        let (width, height) = (image.width(), image.height());
        if width == 0 || height == 0 {
            return Err(ScoreError::new(ScoreFault::DegenerateDimensions { width, height }));
        }
        // Two-phase finite scan, one pass per channel plane: `x * 0.0` is
        // `0.0` exactly when `x` is finite (NaN/±inf yield NaN), so the
        // blockwise sum is NaN iff the block holds a non-finite sample.
        // The sum has no early exit and autovectorizes; the scalar
        // `position` scan runs only on the rare offending block. The
        // reported `sample` stays in interleaved units
        // (`pixel_index * channels + channel`), so single-channel callers
        // see the same index they always did.
        let ch = image.channel_count();
        for (c, plane) in image.planes().iter().enumerate() {
            for (block, samples) in plane.chunks(1024).enumerate() {
                let probe: f64 = samples.iter().map(|v| v * 0.0).sum();
                if !probe.is_finite() {
                    let offset =
                        samples.iter().position(|v| !v.is_finite()).expect("probe found one");
                    return Err(ScoreError::new(ScoreFault::NonFinitePixel {
                        sample: (block * 1024 + offset) * ch + c,
                    }));
                }
            }
        }
        let min_side = width.min(height);
        let too_small = |required: usize, requirement: &'static str, id: MethodId| {
            ScoreError::new(ScoreFault::BelowMinimumSize { width, height, required, requirement })
                .for_method(id)
        };
        let first_enabled =
            |ids: [MethodId; 2]| ids.into_iter().find(|&id| self.methods.contains(id));
        if let Some(id) = first_enabled([MethodId::FilteringMse, MethodId::FilteringSsim]) {
            if min_side < self.filter_window {
                return Err(too_small(self.filter_window, "rank-filter window", id));
            }
        }
        if let Some(id) = first_enabled([MethodId::ScalingSsim, MethodId::FilteringSsim]) {
            let side = 2 * self.ssim_config.radius + 1;
            if min_side < side {
                return Err(too_small(side, "SSIM window", id));
            }
        }
        if let Some(id) = first_enabled([MethodId::Csp, MethodId::PeakExcess]) {
            if min_side < 2 {
                return Err(too_small(2, "spectrum plan", id));
            }
        }
        Ok(())
    }

    /// Fault-isolated single-image scoring: validates the input
    /// ([`DetectionEngine::validate_image`]) and converts both scoring
    /// errors and payload panics into a structured [`ScoreError`] instead
    /// of letting them unwind into the caller.
    ///
    /// # Errors
    ///
    /// A [`ScoreError`] with index `0` for validation rejections, scoring
    /// failures ([`ScoreFault::Detect`]) or recovered panics
    /// ([`ScoreFault::Panicked`]).
    pub fn score_resilient(&self, image: &Image) -> Result<ScoreVector, ScoreError> {
        let attempt = self.validate_image(image).and_then(|()| {
            // The engine holds no interior mutability of its own and the
            // global scaler cache recovers lock poisoning, so observing
            // state after a caught panic is safe.
            match catch_unwind(AssertUnwindSafe(|| self.score(image))) {
                Ok(Ok(scores)) => Ok(scores),
                Ok(Err(err)) => Err(ScoreError::detect(0, err)),
                Err(payload) => Err(ScoreError::panicked(0, payload)),
            }
        });
        attempt.inspect_err(|err| self.metrics.quarantined(&err.cause))
    }

    /// One fault-isolated slot of a streamed fan-out: fires any armed
    /// fault, unwraps the pulled item (the stream is sequential, so every
    /// position — readable or not — consumes an index), validates and
    /// scores, all inside one `catch_unwind` boundary; a panic anywhere in
    /// the slot quarantines only that slot. The order — plan, item,
    /// validation, scoring — mirrors the pre-streaming eager slot exactly,
    /// which is what keeps streamed and eager scoring bit-identical.
    /// Returns the image alongside the result so the caller can recycle
    /// its buffer.
    fn score_slot(
        &self,
        index: usize,
        pulled: Result<Image, ScoreError>,
    ) -> (Result<ScoreVector, ScoreError>, Option<Image>) {
        type Slot = (Result<ScoreVector, ScoreError>, Option<Image>);
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Slot {
            if let Some(plan) = &self.faults {
                // The plan outranks pull failures, exactly as the eager
                // path fires it before `make_image` runs.
                match plan.get(index) {
                    Some(FaultKind::Panic) => panic!("injected panic at scoring index {index}"),
                    Some(FaultKind::Error) => {
                        return (Err(ScoreError::injected(index)), pulled.ok())
                    }
                    Some(FaultKind::NanScore) => {
                        return (Ok(ScoreVector::splat(f64::NAN)), pulled.ok())
                    }
                    None => {}
                }
            }
            let image = match pulled {
                Ok(image) => image,
                Err(err) => return (Err(err.at_index(index)), None),
            };
            if let Err(err) = self.validate_image(&image) {
                return (Err(err.at_index(index)), Some(image));
            }
            match self.score(&image) {
                Ok(scores) => (Ok(scores), Some(image)),
                Err(err) => (Err(ScoreError::detect(index, err)), Some(image)),
            }
        }));
        let (result, image) = match attempt {
            Ok(slot) => slot,
            Err(payload) => (Err(ScoreError::panicked(index, payload)), None),
        };
        (result.inspect_err(|err| self.metrics.quarantined(&err.cause)), image)
    }

    /// Bounded-memory streamed scoring: pulls `source` in chunks of
    /// [`StreamConfig::chunk_size`] images, fans each chunk through the
    /// worker pool with the same per-slot fault quarantine as
    /// [`DetectionEngine::score_corpus_resilient`], recycles image buffers
    /// through the driver's [`BufferPool`](crate::stream::BufferPool), and
    /// feeds `consume` incrementally in stream order. At no point are more
    /// than `chunk_size` decoded images (plus the bounded pool) resident,
    /// regardless of corpus length — corpora larger than memory, or
    /// unbounded upload streams, score in constant space.
    ///
    /// `consume(index, result)` is called once per stream position, in
    /// order (chunk by chunk, ascending index within each chunk). Scores
    /// are **bit-identical** to the eager batch path for any chunk size,
    /// and quarantine errors carry the same stream indices — the
    /// `stream_equivalence` property tests pin this down.
    pub fn score_stream(
        &self,
        source: &mut dyn ImageSource,
        config: &StreamConfig,
        mut consume: impl FnMut(usize, Result<ScoreVector, ScoreError>),
    ) -> StreamSummary {
        let mut driver = ChunkDriver::new(source, config, &self.metrics.telemetry);
        // With a single participant there is no fan-out to stage a chunk
        // for; score each slot as it is pulled. The per-slot sequence
        // (pull, fault plan, validation, scoring) and the consume order
        // are exactly those of the chunked path, so results, errors and
        // the stream summary are identical — only the staging memory
        // traffic (which makes every staged image cache-cold before it
        // scores) is gone.
        if config.threads <= 1 {
            while let Some((index, pulled)) = driver.next_item() {
                let (result, image) = self.score_slot(index, pulled);
                if let Some(image) = image {
                    driver.recycle(image);
                }
                consume(index, result);
                driver.item_done();
            }
            return driver.summary();
        }
        while let Some(chunk) = driver.next_chunk() {
            let results = parallel_map_indices(chunk.len(), config.threads, |offset| {
                self.score_slot(chunk.base() + offset, chunk.take(offset))
            });
            for (offset, (result, image)) in results.into_iter().enumerate() {
                if let Some(image) = image {
                    driver.recycle(image);
                }
                consume(chunk.base() + offset, result);
            }
            driver.finish_chunk();
        }
        driver.summary()
    }

    /// Fault-isolated batch scoring: the same single `2 * count` fan-out as
    /// [`DetectionEngine::score_corpus`] (benign indices first), but each
    /// image's slot is individually quarantined — validation rejections,
    /// scoring errors and payload panics land in that slot's
    /// [`ScoreError`] while every other image scores normally. The batch
    /// itself never fails and the worker pool keeps serving.
    ///
    /// This is now a facade over [`DetectionEngine::score_stream`] with a
    /// closure-backed source and a single `2 * count` chunk, so eager and
    /// streamed scoring share one scoring path (and are bit-identical by
    /// construction).
    pub fn score_corpus_resilient(
        &self,
        benign_of: impl Fn(u64) -> Image + Sync,
        attack_of: impl Fn(u64) -> Image + Sync,
        count: usize,
        threads: usize,
    ) -> BatchOutcome {
        let total = 2 * count;
        let mut source = FnSource::new(total, |i| {
            if (i as usize) < count {
                benign_of(i)
            } else {
                attack_of(i - count as u64)
            }
        });
        let config = StreamConfig::default()
            .with_chunk_size(total.max(1))
            .with_threads(threads)
            .with_pool_capacity(0);
        let mut results = Vec::with_capacity(total);
        self.score_stream(&mut source, &config, |index, result| {
            debug_assert_eq!(index, results.len(), "stream consumption is in order");
            results.push(result);
        });
        let attack = results.split_off(count);
        BatchOutcome { benign: results, attack }
    }

    /// Fault-isolated scoring of a resident corpus by reference: each
    /// slice element scores in place — no staging, no buffer copies — with
    /// the same per-slot quarantine as the streamed paths (validation
    /// rejections, scoring errors and payload panics land in that slot's
    /// [`ScoreError`], addressed by slice index). With `threads > 1` the
    /// slots fan out over the worker pool.
    ///
    /// This is the cheapest batch entry point when the images are already
    /// in memory: per slot it adds only validation and the unwind guard
    /// over [`DetectionEngine::score`]. Sources that must materialize
    /// images (generators, decoders, bounded-memory streams) go through
    /// [`DetectionEngine::score_corpus_resilient`] /
    /// [`DetectionEngine::score_stream`] instead.
    pub fn score_images(
        &self,
        images: &[Image],
        threads: usize,
    ) -> Vec<Result<ScoreVector, ScoreError>> {
        parallel_map_indices(images.len(), threads, |index| {
            // Mirror `score_slot`: validation and scoring both run inside
            // the unwind boundary, so a panic anywhere quarantines only
            // this slot.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let image = &images[index];
                if let Err(err) = self.validate_image(image) {
                    return Err(err.at_index(index));
                }
                self.score(image).map_err(|err| ScoreError::detect(index, err))
            }));
            let result = match attempt {
                Ok(result) => result,
                Err(payload) => Err(ScoreError::panicked(index, payload)),
            };
            result.inspect_err(|err| self.metrics.quarantined(&err.cause))
        })
    }

    /// Scores `count` benign and `count` attack images in a single
    /// `2 * count` fan-out over the worker pool (benign indices first), so
    /// both halves of the corpus share one batch. This is the fail-fast
    /// facade over [`DetectionEngine::score_corpus_resilient`]: the scores
    /// are the same, but the first quarantined slot aborts the result.
    ///
    /// # Errors
    ///
    /// Propagates the first scoring failure in index order (all benign
    /// indices before all attack indices).
    pub fn score_corpus(
        &self,
        benign_of: impl Fn(u64) -> Image + Sync,
        attack_of: impl Fn(u64) -> Image + Sync,
        count: usize,
        threads: usize,
    ) -> Result<EngineCorpus, DetectError> {
        self.score_corpus_resilient(benign_of, attack_of, count, threads).into_result()
    }
}

/// The score of the test-only [`MethodId::DummyMean`]: the image's mean
/// intensity over all channels.
#[cfg(test)]
fn dummy_mean(image: &Image) -> f64 {
    if image.plane_len() == 0 {
        0.0
    } else {
        image.mean_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{DegradePolicy, Ensemble};
    use crate::persist::ThresholdSet;
    use crate::threshold::{Direction, Threshold};
    use decamouflage_attack::{craft_attack, AttackConfig};
    use decamouflage_imaging::scale::Scaler;
    use decamouflage_spectral::dft2d::centered_spectrum;

    fn smooth(n: usize) -> Image {
        Image::from_fn_gray(n, n, |x, y| {
            (128.0 + 60.0 * ((x as f64) * 0.06).sin() + 40.0 * ((y as f64) * 0.045).cos()).round()
        })
    }

    fn smooth_rgb(n: usize) -> Image {
        Image::from_fn_rgb(n, n, |x, y| {
            let v = 128.0 + 60.0 * ((x as f64) * 0.06).sin();
            [v, (v * 0.8 + (y as f64)).min(255.0), 255.0 - v]
        })
    }

    fn attack_image(src: usize, dst: usize) -> Image {
        let scaler =
            Scaler::new(Size::square(src), Size::square(dst), ScaleAlgorithm::Bilinear).unwrap();
        let target = Image::from_fn_gray(dst, dst, |x, y| ((x * 83 + y * 47) % 256) as f64);
        craft_attack(&smooth(src), &target, &scaler, &AttackConfig::default()).unwrap().image
    }

    #[test]
    fn engine_scores_match_naive_detectors_exactly() {
        let engine = DetectionEngine::new(Size::square(16));
        for image in [smooth(64), attack_image(64, 16), smooth_rgb(48)] {
            let scores = engine.score(&image).unwrap();
            for &id in MethodId::ALL {
                assert_eq!(
                    scores.get(id),
                    engine.reference_score(id, &image).unwrap(),
                    "{id} diverged on {}x{}",
                    image.width(),
                    image.height()
                );
            }
        }
    }

    #[test]
    fn engine_peak_excess_matches_standalone_for_every_window() {
        for window in
            [WindowKind::Rectangular, WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman]
        {
            let engine = DetectionEngine::new(Size::square(16)).with_peak_window(window);
            for image in [smooth(64), attack_image(64, 16), smooth_rgb(48)] {
                assert_eq!(
                    engine.score(&image).unwrap().peak_excess(),
                    engine.reference_score(MethodId::PeakExcess, &image).unwrap(),
                    "window {window:?}"
                );
            }
        }
    }

    #[test]
    fn artifacts_match_detector_intermediates() {
        let engine = DetectionEngine::new(Size::square(16));
        let image = smooth(48);
        let artifacts = engine.score_with_artifacts(&image).unwrap();
        let scaling =
            ScalingDetector::new(Size::square(16), ScaleAlgorithm::Bilinear, MetricKind::Mse);
        assert_eq!(artifacts.round_tripped, scaling.round_tripped(&image).unwrap());
        let filtering = FilteringDetector::new(MetricKind::Mse);
        assert_eq!(artifacts.filtered, filtering.filtered(&image).unwrap());
        assert_eq!(artifacts.downscaled.size(), Size::square(16));
        // The rectangular peak window shares the CSP spectrum, and the
        // shared spectrum equals the staged centered_spectrum bit-for-bit.
        let centred = artifacts.centered_spectrum.expect("peak excess enabled by default");
        assert_eq!(centred, centered_spectrum(&image));
    }

    #[test]
    fn engine_separates_benign_from_attack() {
        let engine = DetectionEngine::new(Size::square(16));
        let benign = engine.score(&smooth(64)).unwrap();
        let attack = engine.score(&attack_image(64, 16)).unwrap();
        assert!(attack.scaling_mse() > benign.scaling_mse() * 10.0);
        assert!(attack.scaling_ssim() < benign.scaling_ssim());
        assert!(attack.csp() >= 2.0, "attack CSP = {}", attack.csp());
    }

    #[test]
    fn method_set_gates_scoring() {
        let subset = MethodSet::of(&[MethodId::ScalingMse, MethodId::PeakExcess]);
        let engine = DetectionEngine::new(Size::square(16)).with_methods(subset);
        let full = DetectionEngine::new(Size::square(16));
        let image = smooth(48);
        let scores = engine.score(&image).unwrap();
        let reference = full.score(&image).unwrap();
        for &id in MethodId::ALL {
            if subset.contains(id) {
                assert_eq!(scores.get(id), reference.get(id), "{id}");
            } else {
                assert!(scores.get(id).is_nan(), "{id} should be disabled");
            }
        }
        // Without peak excess the artifacts carry no spectrum.
        let engine = DetectionEngine::new(Size::square(16))
            .with_methods(MethodSet::all().without(MethodId::PeakExcess));
        let artifacts = engine.score_with_artifacts(&image).unwrap();
        assert!(artifacts.centered_spectrum.is_none());
    }

    #[test]
    fn score_corpus_matches_individual_scoring() {
        let engine = DetectionEngine::new(Size::square(8));
        let benign_of = |i: u64| smooth(24 + (i as usize % 3) * 4);
        let attack_of = |i: u64| smooth(32 + (i as usize % 2) * 8).map(|v| 255.0 - v);
        let corpus = engine.score_corpus(benign_of, attack_of, 4, 4).unwrap();
        assert_eq!(corpus.benign.len(), 4);
        assert_eq!(corpus.attack.len(), 4);
        for i in 0..4u64 {
            assert_eq!(corpus.benign[i as usize], engine.score(&benign_of(i)).unwrap());
            assert_eq!(corpus.attack[i as usize], engine.score(&attack_of(i)).unwrap());
        }
        // Column accessors read the same data method-wise.
        for &id in MethodId::ALL {
            let column = corpus.benign_column(id);
            assert_eq!(column.len(), 4);
            assert_eq!(column[2], corpus.benign[2].get(id));
            assert_eq!(corpus.attack_column(id)[1], corpus.attack[1].get(id));
        }
    }

    #[test]
    fn score_images_matches_score_and_quarantines_per_slot() {
        let engine = DetectionEngine::new(Size::square(8));
        let mut poisoned = smooth(24);
        poisoned.set(3, 5, 0, f64::NAN);
        let images = vec![smooth(24), poisoned, smooth(32)];
        for threads in [1, 3] {
            let results = engine.score_images(&images, threads);
            assert_eq!(results.len(), 3);
            assert_eq!(*results[0].as_ref().unwrap(), engine.score(&images[0]).unwrap());
            assert_eq!(*results[2].as_ref().unwrap(), engine.score(&images[2]).unwrap());
            let err = results[1].as_ref().unwrap_err();
            assert_eq!(err.index, 1);
            assert!(matches!(err.cause, crate::error::ScoreFault::NonFinitePixel { .. }));
        }
        assert!(engine.score_images(&[], 1).is_empty());
    }

    #[test]
    fn score_corpus_propagates_configuration_errors() {
        let mut bad_ssim = SsimConfig::default();
        bad_ssim.sigma = 0.0;
        let engine = DetectionEngine::new(Size::square(8)).with_ssim_config(bad_ssim);
        let result = engine.score_corpus(|_| smooth(24), |_| smooth(24), 2, 2);
        assert!(result.is_err());
    }

    #[test]
    fn validate_image_classifies_degenerate_inputs() {
        use crate::error::ScoreFault;
        let engine = DetectionEngine::new(Size::square(8));

        // (Zero-area images cannot be constructed through the imaging
        // crate, so the DegenerateDimensions guard is pure defense-in-depth
        // and is exercised only at the ScoreFault display level.)

        let mut poisoned = smooth(24);
        poisoned.set(3, 5, 0, f64::NAN);
        let err = engine.validate_image(&poisoned).unwrap_err();
        match err.cause {
            ScoreFault::NonFinitePixel { sample } => assert_eq!(sample, 5 * 24 + 3),
            other => panic!("expected NonFinitePixel, got {other:?}"),
        }

        // 4x4 is below the default 11-pixel SSIM window; the error is
        // attributed to the first enabled SSIM method.
        let err = engine.validate_image(&smooth(4)).unwrap_err();
        match err.cause {
            ScoreFault::BelowMinimumSize { required: 11, requirement: "SSIM window", .. } => {}
            other => panic!("expected BelowMinimumSize, got {other:?}"),
        }
        assert_eq!(err.method, Some(MethodId::ScalingSsim));

        // With both SSIM methods disabled the same image passes the SSIM
        // check but still trips the larger-than-image filter window.
        let engine = DetectionEngine::new(Size::square(8))
            .with_filter(6, RankKind::Minimum)
            .with_methods(MethodSet::of(&[MethodId::FilteringMse, MethodId::Csp]));
        let err = engine.validate_image(&smooth(4)).unwrap_err();
        match err.cause {
            ScoreFault::BelowMinimumSize {
                required: 6, requirement: "rank-filter window", ..
            } => {}
            other => panic!("expected the filter-window bound, got {other:?}"),
        }
        assert_eq!(err.method, Some(MethodId::FilteringMse));

        // A fully spatial-free configuration only needs a 2x2 spectrum.
        let engine =
            DetectionEngine::new(Size::square(8)).with_methods(MethodSet::of(&[MethodId::Csp]));
        let err = engine.validate_image(&Image::zeros(1, 8, decamouflage_imaging::Channels::Gray));
        assert!(matches!(err.unwrap_err().cause, ScoreFault::BelowMinimumSize { .. }));
        engine.validate_image(&smooth(2)).expect("2x2 feeds a spectrum plan fine");
    }

    #[test]
    fn score_resilient_matches_score_on_clean_input() {
        let engine = DetectionEngine::new(Size::square(16));
        let image = smooth(48);
        assert_eq!(engine.score_resilient(&image).unwrap(), engine.score(&image).unwrap());
    }

    #[test]
    fn score_resilient_quarantines_invalid_input_with_typed_cause() {
        use crate::error::ScoreFault;
        let engine = DetectionEngine::new(Size::square(16));
        let mut poisoned = smooth(48);
        poisoned.set(0, 0, 0, f64::INFINITY);
        let err = engine.score_resilient(&poisoned).unwrap_err();
        assert!(matches!(err.cause, ScoreFault::NonFinitePixel { sample: 0 }));
        // Scoring errors are carried as the typed Detect cause.
        let mut bad_ssim = SsimConfig::default();
        bad_ssim.sigma = 0.0;
        let engine = DetectionEngine::new(Size::square(16)).with_ssim_config(bad_ssim);
        let err = engine.score_resilient(&smooth(48)).unwrap_err();
        assert!(matches!(err.cause, ScoreFault::Detect(_)));
    }

    #[test]
    fn resilient_corpus_quarantines_exactly_the_invalid_slot() {
        let engine = DetectionEngine::new(Size::square(8));
        let benign_of = |i: u64| {
            if i == 2 {
                // NaN pixels must quarantine this slot and nothing else.
                Image::filled(24, 24, decamouflage_imaging::Channels::Gray, f64::NAN)
            } else {
                smooth(24 + (i as usize % 3) * 4)
            }
        };
        let attack_of = |i: u64| smooth(32 + (i as usize % 2) * 8).map(|v| 255.0 - v);
        let outcome = engine.score_corpus_resilient(benign_of, attack_of, 4, 4);
        let counts = outcome.counts();
        assert_eq!(counts.quarantined, 1);
        assert_eq!(counts.benign_quarantined, 1);
        assert_eq!(counts.attack_quarantined, 0);
        assert_eq!(counts.scored, 7);
        assert!(outcome.benign[2].is_err());
        assert_eq!(outcome.quarantined().next().unwrap().index, 2);
        // Every surviving slot is bit-identical to individual scoring.
        for (i, slot) in outcome.benign.iter().enumerate() {
            if i != 2 {
                assert_eq!(slot.as_ref().unwrap(), &engine.score(&benign_of(i as u64)).unwrap());
            }
        }
        for (i, slot) in outcome.attack.iter().enumerate() {
            assert_eq!(slot.as_ref().unwrap(), &engine.score(&attack_of(i as u64)).unwrap());
        }
        // Surviving columns skip the quarantined slot.
        assert_eq!(outcome.benign_column(MethodId::ScalingMse).len(), 3);
        assert_eq!(outcome.attack_column(MethodId::ScalingMse).len(), 4);
        // The fail-fast facade reports the same batch as an error.
        assert!(engine.score_corpus(benign_of, attack_of, 4, 4).is_err());
    }

    #[test]
    fn fault_plan_fires_by_batch_fanout_index() {
        use crate::faults::{FaultKind, FaultPlan};
        // Index 1 = benign[1], index 4 + 1 = 5 = attack[1] in a count-4 batch.
        let plan = FaultPlan::new().with(1, FaultKind::Error).with(5, FaultKind::NanScore);
        let engine = DetectionEngine::new(Size::square(8)).with_fault_plan(plan);
        let benign_of = |i: u64| smooth(24 + (i as usize % 3) * 4);
        let attack_of = |i: u64| smooth(32 + (i as usize % 2) * 8).map(|v| 255.0 - v);
        let outcome = engine.score_corpus_resilient(benign_of, attack_of, 4, 4);
        let err = outcome.benign[1].as_ref().unwrap_err();
        assert!(matches!(err.cause, crate::error::ScoreFault::Injected));
        assert_eq!(err.index, 1);
        let nan_scores = outcome.attack[1].as_ref().unwrap();
        assert!(MethodId::ALL.iter().all(|&id| nan_scores.get(id).is_nan()));
        // Unarmed slots score bit-identically to a plan-free engine.
        let clean = DetectionEngine::new(Size::square(8));
        assert_eq!(outcome.benign[0].as_ref().unwrap(), &clean.score(&benign_of(0)).unwrap());
        assert_eq!(outcome.attack[0].as_ref().unwrap(), &clean.score(&attack_of(0)).unwrap());
    }

    #[test]
    fn builders_propagate_into_reference_scores() {
        let mut csp = CspConfig::default();
        csp.binarize_threshold = 0.5;
        let mut ssim = SsimConfig::default();
        ssim.radius = 3;
        let engine = DetectionEngine::new(Size::square(8))
            .with_algorithm(ScaleAlgorithm::Nearest)
            .with_ssim_config(ssim)
            .with_filter(3, RankKind::Median)
            .with_csp_config(csp)
            .with_peak_window(WindowKind::Hann);
        assert_eq!(engine.algorithm(), ScaleAlgorithm::Nearest);
        assert_eq!(engine.target(), Size::square(8));
        assert_eq!(engine.peak_window(), WindowKind::Hann);
        assert_eq!(engine.methods(), MethodSet::all());
        // Scores still agree with the references under the customised
        // configuration, so every builder reached both paths.
        let image = smooth(32);
        let scores = engine.score(&image).unwrap();
        for &id in MethodId::ALL {
            assert_eq!(scores.get(id), engine.reference_score(id, &image).unwrap(), "{id}");
        }
    }

    /// The one-registration contract, end to end: `DummyMean` exists only
    /// as a `MethodId` variant, one engine-pass arm and one
    /// [`DetectionEngine::reference_score`] arm, yet it scores, votes,
    /// calibrates and persists without any layer-specific wiring.
    #[test]
    fn dummy_method_flows_through_engine_vote_and_persistence() {
        let engine = DetectionEngine::new(Size::square(8));
        let image = smooth(24);
        let scores = engine.score(&image).unwrap();
        let mean = image.mean_sample();
        assert_eq!(scores.get(MethodId::DummyMean), mean, "the engine pass scored the dummy");
        assert_eq!(engine.reference_score(MethodId::DummyMean, &image).unwrap(), mean);

        // Votes under its registry name, together with a paper method.
        let thresholds: ThresholdSet = [
            (MethodId::DummyMean, Threshold::new(0.0, Direction::AboveIsAttack)),
            (MethodId::Csp, SteganalysisDetector::universal_threshold()),
        ]
        .into_iter()
        .collect();
        let ensemble = Ensemble::new(engine, thresholds.iter(), DegradePolicy::Strict);
        let decision = ensemble.vote(Ok(&scores)).unwrap();
        assert!(decision.votes.contains(&(MethodId::DummyMean, true)));

        // Persists and loads through the typed text format untouched.
        let restored = ThresholdSet::from_text(&thresholds.to_text()).unwrap();
        assert_eq!(restored.get(MethodId::DummyMean), thresholds.get(MethodId::DummyMean));
    }
}
