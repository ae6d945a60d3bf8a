//! Shared-intermediate batch detection engine.
//!
//! Scoring one image with the detection methods independently recomputes
//! everything from scratch: the scaling detectors build four resampling
//! plans and run two round trips, each SSIM evaluation blurs the *input*
//! image again, and both frequency-domain methods transform the image
//! separately. [`DetectionEngine`] scores an image with every enabled
//! method in one pass of two independent branches, sharing the
//! intermediates within each:
//!
//! * **spatial** — one round trip through cached resampling plans
//!   ([`round_trip`]) serves both scaling metrics, one rank-filter pass
//!   serves both filtering metrics, and one [`SsimReference`]
//!   (precomputed `blur(I)`, `blur(I²)`) serves the scaling *and*
//!   filtering SSIM scores, with the blurs on the fast scratch-buffer
//!   convolution path;
//! * **spectral** — one gray view and one planned DFT serve the CSP count
//!   (via the fused, ln-free [`count_csp_in_spectrum`] pipeline) **and**
//!   the radial peak-excess score, the only reader of the full
//!   `log(1 + |F|)` buffer. Peak excess reads the spectrum under a
//!   rectangular window, the identity, so no second transform runs.
//!
//! Each stage runs only when an enabled method reads it: an engine
//! restricted to CSP never round-trips or filters, and one restricted to
//! the scaling metrics never transforms.
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
use crate::parallel::{idle_peer, parallel_map_indices, WorkerPool};
use crate::peak_excess::PeakExcessDetector;
use crate::scaling::ScalingDetector;
use crate::steganalysis::SteganalysisDetector;
use crate::stream::{self, ImageSource, SharedPool, SourceItem, StreamConfig, StreamSummary};
use crate::DetectError;
use decamouflage_imaging::filter::{rank_filter, RankKind};
use decamouflage_imaging::scale::{round_trip, ScaleAlgorithm};
use decamouflage_imaging::{Image, Size};
use decamouflage_metrics::{mse, SsimConfig, SsimReference};
use decamouflage_spectral::csp::{count_csp_in_spectrum, CspConfig};
use decamouflage_spectral::dft2d::dft2_planned;
use decamouflage_spectral::radial::peak_excess;
use decamouflage_spectral::window::WindowKind;
use decamouflage_telemetry::{Counter, HistogramHandle, Telemetry};
use std::borrow::{Borrow, Cow};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Pre-resolved telemetry handles for the engine's hot path. Resolving
/// the `(name, labels)` keys once at construction keeps scoring free of
/// registry lookups; with a disabled [`Telemetry`] every handle is a
/// no-op and no clock is ever read, so scores stay bit-identical
/// (`stage_profile`'s telemetry gate asserts this).
#[derive(Debug, Clone, Default)]
struct EngineMetrics {
    telemetry: Telemetry,
    /// `decam_engine_score_seconds`: full engine pass latency.
    score_seconds: HistogramHandle,
    /// `decam_engine_stage_seconds{stage=...}`: shared-stage latencies.
    validate: HistogramHandle,
    luma: HistogramHandle,
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
    /// `decam_engine_single_pass_total{outcome=...}`: single-image passes
    /// by where the spatial branch ran — on an idle peer (`forked`), back
    /// on the caller because no peer had started it when the spectral
    /// branch ended (`reclaimed`), or on the caller from the start
    /// (`inline`).
    forked: Counter,
    reclaimed: Counter,
    inline: Counter,
}

impl EngineMetrics {
    fn new(telemetry: Telemetry) -> Self {
        let stage = |name| telemetry.histogram("decam_engine_stage_seconds", &[("stage", name)]);
        let single_pass =
            |outcome| telemetry.counter("decam_engine_single_pass_total", &[("outcome", outcome)]);
        Self {
            score_seconds: telemetry.histogram("decam_engine_score_seconds", &[]),
            validate: stage("validate"),
            luma: stage("luma"),
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
            forked: single_pass("forked"),
            reclaimed: single_pass("reclaimed"),
            inline: single_pass("inline"),
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
    methods: MethodSet,
    faults: Option<Arc<FaultPlan>>,
    metrics: EngineMetrics,
    /// The branch that panics when it runs (`"spatial"` or `"spectral"`).
    #[cfg(test)]
    panic_in: Option<&'static str>,
}

/// The methods the spatial branch scores.
const SPATIAL_METHODS: [MethodId; 4] =
    [MethodId::ScalingMse, MethodId::ScalingSsim, MethodId::FilteringMse, MethodId::FilteringSsim];

/// The methods the spectral branch scores.
const SPECTRAL_METHODS: [MethodId; 2] = [MethodId::Csp, MethodId::PeakExcess];

impl DetectionEngine {
    /// Creates an engine with the reproduction's standard configuration for
    /// a CNN input size: a bilinear defender round trip, the default SSIM
    /// window, the paper's 2×2 minimum filter, the target-tuned CSP
    /// configuration of [`SteganalysisDetector::for_target`] and every
    /// registered method enabled.
    pub fn new(target: Size) -> Self {
        Self {
            target,
            algorithm: ScaleAlgorithm::Bilinear,
            ssim_config: SsimConfig::default(),
            filter_window: 2,
            filter_rank: RankKind::Minimum,
            csp_config: SteganalysisDetector::for_target(target).config().clone(),
            methods: MethodSet::all(),
            faults: None,
            metrics: EngineMetrics::new(decamouflage_telemetry::global()),
            #[cfg(test)]
            panic_in: None,
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

    /// Restricts which methods [`DetectionEngine::score`] runs. Disabled
    /// methods score `NaN`.
    #[must_use]
    pub fn with_methods(mut self, methods: MethodSet) -> Self {
        self.methods = methods;
        self
    }

    /// Arms a deterministic [`FaultPlan`] on the batch paths:
    /// [`DetectionEngine::score_images`] and
    /// [`DetectionEngine::score_stream`] fire the plan entry armed at
    /// each slice/stream index *inside* the per-image isolation boundary,
    /// so an injected panic travels the exact worker-pool →
    /// `catch_unwind` → quarantine route a real deep panic would. An armed
    /// fault outranks a failed pull at the same index. Single-image
    /// scoring ([`DetectionEngine::score`],
    /// [`DetectionEngine::score_resilient`]) ignores the plan.
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
                .with_window(WindowKind::Rectangular)
                .score(image),
            #[cfg(test)]
            MethodId::DummyMean => Ok(dummy_mean(image)),
        }
    }

    /// Scores `image` with every enabled method in one pass: the spatial
    /// branch, then the spectral branch, each running only the stages an
    /// enabled method reads (see the module docs). Disabled methods score
    /// `NaN`.
    ///
    /// # Errors
    ///
    /// Propagates imaging and metric failures ([`DetectError::Imaging`] /
    /// [`DetectError::Metric`]).
    pub fn score(&self, image: &Image) -> Result<ScoreVector, DetectError> {
        self.pass(image, false)
    }

    /// The engine pass. Its only choice is where the spatial branch runs.
    /// With `lend` (single-image scoring, see
    /// [`DetectionEngine::score_resilient`]), when both branches have work
    /// and this thread is a pool worker whose pool has an idle worker
    /// right now, that worker runs the spatial branch while this thread
    /// runs the spectral one; if it has not started the spatial branch
    /// when the spectral one ends, this thread runs it too. Otherwise both
    /// branches run here, spatial first. Each branch runs the same
    /// operations in the same order on whichever thread runs it, so the
    /// scores are bit-identical either way.
    fn pass(&self, image: &Image, lend: bool) -> Result<ScoreVector, DetectError> {
        let _total = self.metrics.score_seconds.span();
        let both = self.any_enabled(SPATIAL_METHODS) && self.any_enabled(SPECTRAL_METHODS);
        let peer = if lend && both { idle_peer() } else { None };
        let scores = match peer {
            None => {
                if lend {
                    self.metrics.inline.inc();
                }
                let mut scores = self.score_spatial(image)?;
                self.score_spectral(image, &mut scores);
                scores
            }
            Some(peer) => {
                let caller = std::thread::current().id();
                let spatial = || (self.score_spatial(image), std::thread::current().id() == caller);
                let mut spectral = ScoreVector::splat(f64::NAN);
                let ((), (spatial, reclaimed)) =
                    peer.join(spatial, || self.score_spectral(image, &mut spectral));
                if reclaimed { &self.metrics.reclaimed } else { &self.metrics.forked }.inc();
                let mut scores = spatial?;
                for id in SPECTRAL_METHODS {
                    scores.set(id, spectral.get(id));
                }
                scores
            }
        };
        self.metrics.scored_total.inc();
        Ok(scores)
    }

    /// The spatial branch: one round trip serves both scaling metrics, one
    /// rank-filter pass both filtering metrics, and one [`SsimReference`]
    /// both SSIM scores. Each stage runs only for the enabled methods that
    /// read it. The spectral methods score `NaN` here.
    fn score_spatial(&self, image: &Image) -> Result<ScoreVector, DetectError> {
        #[cfg(test)]
        self.inject_panic("spatial");
        let mut scores = ScoreVector::splat(f64::NAN);
        let round_tripped = if self.any_enabled([MethodId::ScalingMse, MethodId::ScalingSsim]) {
            let _stage = self.metrics.scale_round_trip.span();
            Some(round_trip(image, self.target, self.algorithm)?.1)
        } else {
            None
        };
        let filtered = if self.any_enabled([MethodId::FilteringMse, MethodId::FilteringSsim]) {
            let _stage = self.metrics.rank_filter.span();
            Some(rank_filter(image, self.filter_window, self.filter_rank)?)
        } else {
            None
        };
        // Each method with the stage output it compares the input against;
        // an enabled method's stage always ran.
        let mse_methods =
            [(MethodId::ScalingMse, &round_tripped), (MethodId::FilteringMse, &filtered)];
        for (id, other) in mse_methods {
            if let Some(other) = other.as_ref().filter(|_| self.methods.contains(id)) {
                let _method = self.metrics.method(id).span();
                scores.set(id, mse(image, other)?);
            }
        }
        let ssim_methods =
            [(MethodId::ScalingSsim, &round_tripped), (MethodId::FilteringSsim, &filtered)];
        if self.any_enabled(ssim_methods.map(|(id, _)| id)) {
            // One reference-side SSIM precomputation serves both comparisons.
            let reference = {
                let _stage = self.metrics.ssim_reference.span();
                SsimReference::new(image, &self.ssim_config)?
            };
            for (id, other) in ssim_methods {
                if let Some(other) = other.as_ref().filter(|_| self.methods.contains(id)) {
                    let _method = self.metrics.method(id).span();
                    scores.set(id, reference.score_against(other)?);
                }
            }
        }
        #[cfg(test)]
        if self.methods.contains(MethodId::DummyMean) {
            scores.set(MethodId::DummyMean, dummy_mean(image));
        }
        Ok(scores)
    }

    /// The spectral branch: one gray view and one planned DFT serve both
    /// frequency-domain methods. CSP counts from `|F|²` with the ln-free
    /// [`count_csp_in_spectrum`]; only peak excess builds the full
    /// `log(1 + |F|)` buffer, inside its own method span. Runs only when
    /// CSP or peak excess is enabled.
    fn score_spectral(&self, image: &Image, scores: &mut ScoreVector) {
        #[cfg(test)]
        self.inject_panic("spectral");
        if !self.any_enabled(SPECTRAL_METHODS) {
            return;
        }
        // Gray inputs are borrowed as-is (zero copies, nothing timed); RGB
        // inputs pay for exactly one fused luma pass — never one per method.
        let gray = if image.channel_count() == 1 {
            Cow::Borrowed(image)
        } else {
            let _stage = self.metrics.luma.span();
            Cow::Owned(
                Image::from_gray_plane(image.width(), image.height(), image.luma().into_owned())
                    .expect("luma plane is sized width*height"),
            )
        };
        let spectrum = {
            let _stage = self.metrics.dft.span();
            dft2_planned(&gray)
        };
        if self.methods.contains(MethodId::Csp) {
            let _method = self.metrics.method(MethodId::Csp).span();
            let count = count_csp_in_spectrum(&spectrum, &self.csp_config).count;
            scores.set(MethodId::Csp, count as f64);
        }
        if self.methods.contains(MethodId::PeakExcess) {
            let _method = self.metrics.method(MethodId::PeakExcess).span();
            // Peak excess reads the spectrum under a rectangular window,
            // the identity, so the CSP plan's DFT *is* its spectrum: shift
            // and log-normalise its magnitudes instead of transforming
            // again.
            let centred = spectrum.centered_log_magnitude();
            let (min_r, max_r) = PeakExcessDetector::for_target(self.target).radii_for(image);
            scores.set(MethodId::PeakExcess, peak_excess(&centred, min_r.max(1), max_r.max(2)));
        }
    }

    /// Whether any of `ids` is enabled: the gate of a stage or branch they
    /// share.
    fn any_enabled<const N: usize>(&self, ids: [MethodId; N]) -> bool {
        ids.into_iter().any(|id| self.methods.contains(id))
    }

    /// Makes the named branch panic when it runs.
    #[cfg(test)]
    fn panicking_in(mut self, branch: &'static str) -> Self {
        self.panic_in = Some(branch);
        self
    }

    #[cfg(test)]
    fn inject_panic(&self, branch: &str) {
        if self.panic_in == Some(branch) {
            panic!("injected panic in the {branch} branch");
        }
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
        if let Some(id) = first_enabled(SPECTRAL_METHODS) {
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
    /// Called on a [`WorkerPool`] worker (a `serve` handler, say) while
    /// another worker of the same pool waits for a job, the pass lends
    /// its spatial branch to that worker and runs the spectral branch
    /// itself, so one image scores on two cores. Anywhere else — on a
    /// thread no pool owns, with no idle peer, or when only one branch has
    /// work — both branches run on the calling thread. The scores are
    /// bit-identical either way, and
    /// `decam_engine_single_pass_total{outcome}` counts where the spatial
    /// branch ran. The batch and streamed paths
    /// ([`DetectionEngine::score_images`],
    /// [`DetectionEngine::score_stream`]) never lend: they already keep
    /// every worker busy with an image of its own.
    ///
    /// # Errors
    ///
    /// A [`ScoreError`] with index `0` for validation rejections, scoring
    /// failures ([`ScoreFault::Detect`]) or recovered panics
    /// ([`ScoreFault::Panicked`]), in either branch.
    pub fn score_resilient(&self, image: &Image) -> Result<ScoreVector, ScoreError> {
        self.score_slot(0, None, true, || Ok(image)).0
    }

    /// The engine's one fault-isolation boundary, shared by
    /// [`DetectionEngine::score_resilient`], [`DetectionEngine::score_images`]
    /// and every streamed slot. Inside a single `catch_unwind` it fires the
    /// `plan` entry armed at `index`, materialises the slot's `item` (for
    /// a streamed slot: the pulled item, decoded here when it is encoded
    /// bytes; the stream is sequential, so every position — readable or
    /// not — consumes an index), validates and scores; a panic anywhere
    /// in the slot, decoder panics included, quarantines only that slot.
    /// The order — plan, item, validation, scoring — mirrors the
    /// pre-streaming eager slot exactly, which is what keeps streamed and
    /// eager scoring bit-identical. Every quarantined slot counts once on
    /// `decam_engine_quarantined_total`. Returns the image alongside the
    /// result so a streamed caller can recycle its buffers. `lend` is the
    /// pass's (see [`DetectionEngine::score_resilient`]).
    fn score_slot<I: Borrow<Image>>(
        &self,
        index: usize,
        plan: Option<&FaultPlan>,
        lend: bool,
        item: impl FnOnce() -> Result<I, ScoreError>,
    ) -> (Result<ScoreVector, ScoreError>, Option<I>) {
        // The engine holds no interior mutability of its own and the
        // global scaler cache recovers lock poisoning, so observing state
        // after a caught panic is safe.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            // The plan outranks pull failures, exactly as the eager path
            // fires it before `make_image` runs; an armed slot never
            // materialises its item.
            match plan.and_then(|plan| plan.get(index)) {
                Some(FaultKind::Panic) => panic!("injected panic at scoring index {index}"),
                Some(FaultKind::Error) => return (Err(ScoreError::injected(index)), None),
                Some(FaultKind::NanScore) => return (Ok(ScoreVector::splat(f64::NAN)), None),
                None => {}
            }
            let image = match item() {
                Ok(image) => image,
                Err(err) => return (Err(err.at_index(index)), None),
            };
            let result = match self.validate_image(image.borrow()) {
                Err(err) => Err(err.at_index(index)),
                Ok(()) => {
                    self.pass(image.borrow(), lend).map_err(|err| ScoreError::detect(index, err))
                }
            };
            (result, Some(image))
        }));
        let (result, image) =
            attempt.unwrap_or_else(|payload| (Err(ScoreError::panicked(index, payload)), None));
        (result.inspect_err(|err| self.metrics.quarantined(&err.cause)), image)
    }

    /// One streamed slot on the worker that scores it: the pulled item is
    /// materialised inside [`DetectionEngine::score_slot`] — encoded bytes
    /// decode into planes taken from `pool` — and the image's planes go
    /// back to `pool` as soon as the slot is scored, so each worker holds
    /// at most one decoded image.
    fn score_pulled(
        &self,
        index: usize,
        pulled: SourceItem,
        pool: &SharedPool,
    ) -> Result<ScoreVector, ScoreError> {
        let (result, image) = self.score_slot(index, self.faults.as_deref(), false, || {
            pulled.and_then(|item| item.into_image(&mut |samples| pool.take(samples)))
        });
        if let Some(image) = image {
            pool.recycle(image);
        }
        result
    }

    /// Bounded-memory streamed scoring with the same per-slot fault
    /// quarantine as [`DetectionEngine::score_images`], feeding `consume`
    /// in stream order as soon as each position's verdict is ready.
    ///
    /// The caller thread pulls `source` into a window of the pulled but
    /// unconsumed positions of one [`StreamConfig::chunk_size`] chunk. It
    /// and `threads - 1` worker-pool helpers claim positions from the
    /// window in index order; finished ones wait in a reorder buffer, and
    /// between its own slots the caller runs `consume(index, result)` for
    /// every position whose predecessors are all done, then refills the
    /// window. `consume(0)` runs after one slot, not after one chunk; only
    /// the pulls wait at a chunk boundary, for the chunk's last position
    /// to be consumed. Each participant decodes the slots it scores (a
    /// source of encoded bytes, such as a
    /// [`DirectorySource`](crate::stream::DirectorySource), pulls only
    /// bytes), taking planes from the stream's
    /// [`BufferPool`](crate::stream::BufferPool) and recycling them right
    /// after scoring. So a byte source keeps at most `threads` decoded
    /// images resident, plus the bounded pool and one window of encoded
    /// bytes, regardless of corpus length — corpora larger than memory, or
    /// unbounded upload streams, score in constant space. With one thread,
    /// no position is pulled before the previous one is consumed.
    ///
    /// As nothing of the next chunk runs before `consume` sees a chunk's
    /// last position, a registry snapshot taken there counts exactly the
    /// consumed positions.
    ///
    /// `consume` is called once per position, in ascending index order,
    /// until it returns [`ControlFlow::Break`]: then nothing more is
    /// pulled, and positions already being scored finish and are
    /// discarded. Scores are **bit-identical** to
    /// [`DetectionEngine::score_images`] over the same images for any
    /// chunk size and thread count, and quarantine errors carry the same
    /// indices — the `stream_equivalence` property tests pin this down.
    pub fn score_stream(
        &self,
        source: &mut dyn ImageSource,
        config: &StreamConfig,
        consume: impl FnMut(usize, Result<ScoreVector, ScoreError>) -> ControlFlow<()>,
    ) -> StreamSummary {
        stream::drive(
            source,
            config,
            &self.metrics.telemetry,
            WorkerPool::global(),
            |index, pulled, pool| self.score_pulled(index, pulled, pool),
            consume,
        )
    }

    /// Fault-isolated scoring of a resident corpus by reference: each
    /// slice element scores in place — no staging, no buffer copies — with
    /// the same per-slot quarantine as the streamed paths (an armed
    /// [`FaultPlan`] entry, validation rejections, scoring errors and
    /// payload panics land in that slot's [`ScoreError`], addressed by
    /// slice index). With `threads > 1` the slots fan out over the worker
    /// pool.
    ///
    /// This is the batch entry point for images already in memory: per
    /// slot it adds only validation and the unwind guard over
    /// [`DetectionEngine::score`]. Sources that must materialize images
    /// (generators, decoders, bounded-memory streams) go through
    /// [`DetectionEngine::score_stream`] instead.
    pub fn score_images(
        &self,
        images: &[Image],
        threads: usize,
    ) -> Vec<Result<ScoreVector, ScoreError>> {
        parallel_map_indices(images.len(), threads, |index| {
            self.score_slot(index, self.faults.as_deref(), false, || Ok(&images[index])).0
        })
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
    use std::time::{Duration, Instant};

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

    /// The one cached round trip, which the engine's scaling stage and the
    /// bench harness's PSNR and colour-histogram scorers read, equals the
    /// uncached reference bit for bit.
    #[test]
    fn cached_round_trip_is_bit_identical_to_the_reference() {
        let target = Size::square(16);
        let scaling = ScalingDetector::new(target, ScaleAlgorithm::Bilinear, MetricKind::Mse);
        let non_square = Image::from_fn_gray(56, 40, |x, y| ((x * 7 + y * 13) % 251) as f64);
        for image in [smooth(48), smooth_rgb(48), non_square] {
            let (downscaled, cached) =
                round_trip(&image, target, ScaleAlgorithm::Bilinear).unwrap();
            let reference = scaling.round_tripped(&image).unwrap();
            assert_eq!(downscaled.size(), target);
            assert_eq!((cached.size(), cached.channels()), (image.size(), image.channels()));
            let bits = |image: &Image| {
                image.planes().iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&cached), bits(&reference), "{}x{}", image.width(), image.height());
        }
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
        let bad_ssim = SsimConfig { sigma: 0.0, ..SsimConfig::default() };
        let engine = DetectionEngine::new(Size::square(16)).with_ssim_config(bad_ssim);
        let err = engine.score_resilient(&smooth(48)).unwrap_err();
        assert!(matches!(err.cause, ScoreFault::Detect(_)));
    }

    /// Runs `work` on a worker of `pool` once every worker waits for a job,
    /// so the worker running it has an idle peer.
    fn on_a_worker_with_an_idle_peer<T: Send + 'static>(
        pool: &WorkerPool,
        work: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let waited = Instant::now();
        while pool.idle_workers() < pool.workers() {
            assert!(waited.elapsed() < Duration::from_secs(10), "the pool never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done, finished) = std::sync::mpsc::channel();
        pool.spawn(move || {
            let _ = done.send(work());
        });
        finished.recv_timeout(Duration::from_secs(120)).expect("the job ran to completion")
    }

    /// `score_resilient` of `image` on a worker of `pool` with an idle peer.
    fn lent(
        pool: &WorkerPool,
        engine: &DetectionEngine,
        image: &Image,
    ) -> Result<ScoreVector, ScoreError> {
        let (engine, image) = (engine.clone(), image.clone());
        on_a_worker_with_an_idle_peer(pool, move || engine.score_resilient(&image))
    }

    /// Score bits, so that disabled methods' `NaN`s compare equal.
    fn bits(scores: &ScoreVector) -> Vec<u64> {
        scores.iter().map(|(_, score)| score.to_bits()).collect()
    }

    /// `decam_engine_single_pass_total` as `[forked, reclaimed, inline]`.
    fn single_passes(telemetry: &Telemetry) -> [u64; 3] {
        ["forked", "reclaimed", "inline"].map(|outcome| {
            telemetry.counter("decam_engine_single_pass_total", &[("outcome", outcome)]).value()
        })
    }

    /// On a pool worker with an idle peer, a pass whose branches both have
    /// work lends its spatial branch (the peer runs it, or the caller
    /// reclaims it) and scores bit-identically to `score`; an engine with
    /// one branch runs inline.
    #[test]
    fn a_lent_pass_scores_bit_identically_to_the_inline_pass() {
        let pool = WorkerPool::new(2);
        let engines = [
            (MethodSet::of(crate::ensemble::PAPER_METHODS), true),
            (MethodSet::all(), true),
            (MethodSet::of(&SPATIAL_METHODS), false),
            (MethodSet::of(&SPECTRAL_METHODS), false),
        ];
        for (methods, both_branches) in engines {
            for image in [smooth(48), attack_image(64, 16), smooth_rgb(48)] {
                let telemetry = Telemetry::enabled();
                let engine = DetectionEngine::new(Size::square(16))
                    .with_methods(methods)
                    .with_telemetry(telemetry.clone());
                let scores = lent(&pool, &engine, &image).unwrap();
                assert_eq!(bits(&scores), bits(&engine.score(&image).unwrap()), "{methods:?}");
                let [forked, reclaimed, inline] = single_passes(&telemetry);
                let expected = if both_branches { (1, 0) } else { (0, 1) };
                assert_eq!((forked + reclaimed, inline), expected, "{methods:?}");
            }
        }
    }

    /// A thread no pool owns, and the batch and streamed slots, never
    /// lend: their work is what it was before lending existed.
    #[test]
    fn only_single_image_passes_on_a_pool_worker_lend() {
        let telemetry = Telemetry::enabled();
        let engine = DetectionEngine::new(Size::square(16)).with_telemetry(telemetry.clone());
        let images = [smooth(48), smooth_rgb(48)];
        engine.score_images(&images, 2);
        let config = crate::StreamConfig::default().with_threads(2);
        engine.score_stream(&mut crate::SliceSource::new(&images), &config, |_, _| {
            ControlFlow::Continue(())
        });
        engine.score(&images[0]).unwrap();
        assert_eq!(single_passes(&telemetry), [0, 0, 0], "batch slots and `score` never count");
        engine.score_resilient(&images[0]).unwrap();
        assert_eq!(single_passes(&telemetry), [0, 0, 1], "the test thread is no pool's worker");
    }

    /// A refused image, a scoring error and a panic in either branch come
    /// back from a lent pass as the very `ScoreError` of the inline pass,
    /// and a panic quarantines only its own call: the pool and its workers
    /// go on scoring.
    #[test]
    fn a_lent_pass_fails_like_the_inline_pass() {
        let pool = WorkerPool::new(2);
        let engine = DetectionEngine::new(Size::square(16));
        let mut poisoned = smooth(48);
        poisoned.set(3, 5, 0, f64::NAN);
        let bad_ssim = SsimConfig { sigma: 0.0, ..SsimConfig::default() };
        let cases = [
            (engine.clone(), poisoned),
            (engine.clone(), smooth(4)),
            (engine.clone().with_ssim_config(bad_ssim), smooth(48)),
            (engine.clone().panicking_in("spatial"), smooth(48)),
            (engine.clone().panicking_in("spectral"), smooth_rgb(48)),
        ];
        for (failing, image) in cases {
            let inline = failing.score_resilient(&image).unwrap_err();
            let lent = lent(&pool, &failing, &image).unwrap_err();
            assert_eq!(format!("{lent:?}"), format!("{inline:?}"));
        }
        let telemetry = Telemetry::enabled();
        let engine = engine.with_telemetry(telemetry.clone());
        let image = smooth(48);
        let scores = lent(&pool, &engine, &image).unwrap();
        assert_eq!(bits(&scores), bits(&engine.score(&image).unwrap()));
        let [forked, reclaimed, _] = single_passes(&telemetry);
        assert_eq!(forked + reclaimed, 1, "both workers survived the panics");
    }

    #[test]
    fn fault_plan_fires_by_slice_index() {
        use crate::faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::new().with(1, FaultKind::Error).with(5, FaultKind::NanScore);
        let engine = DetectionEngine::new(Size::square(8)).with_fault_plan(plan);
        let images: Vec<Image> = (0..8)
            .map(|i| if i < 4 { smooth(24 + (i % 3) * 4) } else { smooth(32).map(|v| 255.0 - v) })
            .collect();
        let clean = DetectionEngine::new(Size::square(8));
        for threads in [1, 4] {
            let results = engine.score_images(&images, threads);
            let err = results[1].as_ref().unwrap_err();
            assert!(matches!(err.cause, crate::error::ScoreFault::Injected));
            assert_eq!(err.index, 1);
            let nan_scores = results[5].as_ref().unwrap();
            assert!(MethodId::ALL.iter().all(|&id| nan_scores.get(id).is_nan()));
            // Unarmed slots score bit-identically to a plan-free engine.
            for i in [0, 2, 3, 4, 6, 7] {
                assert_eq!(results[i].as_ref().unwrap(), &clean.score(&images[i]).unwrap());
            }
        }
        // Single-image scoring ignores the plan.
        assert_eq!(engine.score_resilient(&images[1]).unwrap(), clean.score(&images[1]).unwrap());
    }

    #[test]
    fn builders_propagate_into_reference_scores() {
        let csp = CspConfig { binarize_threshold: 0.5, ..CspConfig::default() };
        let ssim = SsimConfig { radius: 3, ..SsimConfig::default() };
        let engine = DetectionEngine::new(Size::square(8))
            .with_algorithm(ScaleAlgorithm::Nearest)
            .with_ssim_config(ssim)
            .with_filter(3, RankKind::Median)
            .with_csp_config(csp);
        assert_eq!(engine.algorithm(), ScaleAlgorithm::Nearest);
        assert_eq!(engine.target(), Size::square(8));
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
