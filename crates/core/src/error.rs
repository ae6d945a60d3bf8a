use crate::method::MethodId;
use std::fmt;

/// Error type for detection operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum DetectError {
    /// An imaging primitive failed (scaling, filtering, …).
    Imaging(decamouflage_imaging::ImagingError),
    /// A metric computation failed.
    Metric(decamouflage_metrics::MetricError),
    /// A calibration input was unusable (empty score set, NaN scores, …).
    InvalidCalibration {
        /// Human-readable description.
        message: String,
    },
    /// A framework configuration value was unusable.
    InvalidConfig {
        /// Human-readable description.
        message: String,
    },
    /// A per-image scoring failure surfaced through a fail-fast API
    /// (quarantine causes that have no older [`DetectError`] variant:
    /// validation rejections, recovered panics, injected faults).
    Score(Box<ScoreError>),
    /// A scan checkpoint is internally valid but does not belong to the
    /// operation at hand: wrong corpus fingerprint on `--resume`,
    /// overlapping or missing shards on merge, mismatched method sets, …
    /// Distinct from [`DetectError::InvalidConfig`] (which covers files
    /// that fail to *parse*) so callers can tell "corrupt file" from
    /// "valid file, wrong scan".
    CheckpointMismatch {
        /// Human-readable description of what does not line up.
        message: String,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Imaging(err) => write!(f, "imaging error: {err}"),
            Self::Metric(err) => write!(f, "metric error: {err}"),
            Self::InvalidCalibration { message } => write!(f, "invalid calibration: {message}"),
            Self::InvalidConfig { message } => write!(f, "invalid config: {message}"),
            Self::Score(err) => write!(f, "score error: {err}"),
            Self::CheckpointMismatch { message } => write!(f, "checkpoint mismatch: {message}"),
        }
    }
}

impl std::error::Error for DetectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Imaging(err) => Some(err),
            Self::Metric(err) => Some(err),
            Self::Score(err) => Some(err),
            _ => None,
        }
    }
}

impl From<decamouflage_imaging::ImagingError> for DetectError {
    fn from(err: decamouflage_imaging::ImagingError) -> Self {
        Self::Imaging(err)
    }
}

impl From<decamouflage_metrics::MetricError> for DetectError {
    fn from(err: decamouflage_metrics::MetricError) -> Self {
        Self::Metric(err)
    }
}

impl From<ScoreError> for DetectError {
    /// Converts a per-image failure into the fail-fast error type. A cause
    /// that merely wraps a [`DetectError`] unwraps back to it, so `?` on a
    /// quarantined slot reports the original scoring error.
    fn from(err: ScoreError) -> Self {
        match err.cause {
            ScoreFault::Detect(inner) => inner,
            _ => Self::Score(Box::new(err)),
        }
    }
}

/// Typed cause of a per-image scoring failure — the error taxonomy behind
/// input quarantine.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScoreFault {
    /// The image has a zero-area (or otherwise degenerate) pixel grid.
    DegenerateDimensions {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
    },
    /// A pixel sample was NaN or infinite.
    NonFinitePixel {
        /// Flat sample index of the first offending value.
        sample: usize,
    },
    /// The image is smaller than a configured analysis window.
    BelowMinimumSize {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
        /// Minimum side length the offending method requires.
        required: usize,
        /// Which configured window imposed the bound (for messages).
        requirement: &'static str,
    },
    /// A detector produced a NaN or infinite score.
    NonFiniteScore {
        /// The offending score.
        score: f64,
    },
    /// The scoring path returned a typed error.
    Detect(DetectError),
    /// The scoring path panicked; the payload was recovered by
    /// `catch_unwind` and the batch kept running.
    Panicked {
        /// The panic payload, stringified where possible.
        message: String,
    },
    /// A [`FaultPlan`](crate::faults::FaultPlan) fired at this index.
    Injected,
    /// A stream source could not produce this item (e.g. a file that
    /// failed to decode). The position is quarantined like any other
    /// scoring failure; the stream keeps flowing.
    Unreadable {
        /// Human-readable description of the source failure.
        message: String,
    },
    /// A stream source produced bytes no codec claims (unknown magic)
    /// or a claimed format with an unsupported feature. Distinguished
    /// from [`ScoreFault::Unreadable`] so clients can tell "wrong file
    /// type" from "corrupt file".
    UnsupportedFormat {
        /// Human-readable description of what was unsupported.
        message: String,
    },
}

impl ScoreFault {
    /// Every [`kind`](ScoreFault::kind) tag, one per variant — the
    /// admissible `quarantine` row kinds of a scan checkpoint. `kind`
    /// destructures this array into one binding per tag and matches
    /// every variant onto one of them, so a new variant cannot compile
    /// without its tag landing here (an unused binding fails the lint
    /// gate).
    pub(crate) const KINDS: [&'static str; 9] = [
        "degenerate-dimensions",
        "non-finite-pixel",
        "below-minimum-size",
        "non-finite-score",
        "detect",
        "panic",
        "injected",
        "unreadable",
        "unsupported-format",
    ];

    /// A short, stable kebab-case tag for this fault kind, used as the
    /// `fault` label on quarantine telemetry counters. Tags never change
    /// once shipped — dashboards key on them.
    pub const fn kind(&self) -> &'static str {
        let [degenerate, pixel, small, score, detect, panic, injected, unreadable, unsupported] =
            Self::KINDS;
        match self {
            Self::DegenerateDimensions { .. } => degenerate,
            Self::NonFinitePixel { .. } => pixel,
            Self::BelowMinimumSize { .. } => small,
            Self::NonFiniteScore { .. } => score,
            Self::Detect(_) => detect,
            Self::Panicked { .. } => panic,
            Self::Injected => injected,
            Self::Unreadable { .. } => unreadable,
            Self::UnsupportedFormat { .. } => unsupported,
        }
    }

    /// Whether `kind` tags a fault raised before any image existed: the
    /// bytes never decoded ([`ScoreFault::Unreadable`],
    /// [`ScoreFault::UnsupportedFormat`]).
    pub(crate) fn is_decode_kind(kind: &str) -> bool {
        let [.., unreadable, unsupported] = Self::KINDS;
        kind == unreadable || kind == unsupported
    }
}

impl fmt::Display for ScoreFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegenerateDimensions { width, height } => {
                write!(f, "degenerate image dimensions {width}x{height}")
            }
            Self::NonFinitePixel { sample } => {
                write!(f, "non-finite pixel value at flat sample index {sample}")
            }
            Self::BelowMinimumSize { width, height, required, requirement } => write!(
                f,
                "image {width}x{height} is smaller than the configured {requirement} \
                 (needs both sides >= {required})"
            ),
            Self::NonFiniteScore { score } => write!(f, "non-finite score {score}"),
            Self::Detect(err) => write!(f, "{err}"),
            Self::Panicked { message } => write!(f, "scoring panicked: {message}"),
            Self::Injected => write!(f, "injected fault"),
            Self::Unreadable { message } => write!(f, "unreadable source item: {message}"),
            Self::UnsupportedFormat { message } => {
                write!(f, "unsupported source format: {message}")
            }
        }
    }
}

/// A structured per-image scoring failure: which image of a batch, which
/// method the failure is attributable to (where known), and the typed
/// [`ScoreFault`] cause.
///
/// Produced by the quarantine layer
/// ([`DetectionEngine::validate_image`](crate::DetectionEngine::validate_image),
/// [`DetectionEngine::score_resilient`](crate::DetectionEngine::score_resilient),
/// [`DetectionEngine::score_images`](crate::DetectionEngine::score_images),
/// [`DetectionEngine::score_stream`](crate::DetectionEngine::score_stream)).
#[derive(Debug)]
pub struct ScoreError {
    /// The image's scoring index. Single-image APIs use `0`; batch APIs use
    /// the image's slice or stream index.
    pub index: usize,
    /// The method the failure is attributable to, where one is.
    pub method: Option<MethodId>,
    /// The typed cause.
    pub cause: ScoreFault,
}

impl ScoreError {
    /// Wraps a cause with index `0` and no attributed method.
    pub fn new(cause: ScoreFault) -> Self {
        Self { index: 0, method: None, cause }
    }

    /// Wraps a fail-fast [`DetectError`] raised while scoring `index`.
    pub fn detect(index: usize, err: DetectError) -> Self {
        Self { index, method: None, cause: ScoreFault::Detect(err) }
    }

    /// Builds the error for a recovered panic payload at `index`.
    pub fn panicked(index: usize, payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Self { index, method: None, cause: ScoreFault::Panicked { message } }
    }

    /// Builds the error an injected [`FaultKind::Error`](crate::faults::FaultKind)
    /// fault reports at `index`.
    pub fn injected(index: usize) -> Self {
        Self { index, method: None, cause: ScoreFault::Injected }
    }

    /// Re-addresses the error to a batch index (builder style).
    #[must_use]
    pub fn at_index(mut self, index: usize) -> Self {
        self.index = index;
        self
    }

    /// Attributes the error to a method (builder style).
    #[must_use]
    pub fn for_method(mut self, id: MethodId) -> Self {
        self.method = Some(id);
        self
    }

    /// Whether the cause is a recovered panic.
    pub const fn is_panic(&self) -> bool {
        matches!(self.cause, ScoreFault::Panicked { .. })
    }
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image {}", self.index)?;
        if let Some(id) = self.method {
            write!(f, " ({})", id.name())?;
        }
        write!(f, ": {}", self.cause)
    }
}

impl std::error::Error for ScoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            ScoreFault::Detect(err) => Some(err),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = DetectError::from(decamouflage_imaging::ImagingError::InvalidDimensions {
            width: 0,
            height: 0,
        });
        assert!(!e.to_string().is_empty());
        assert!(std::error::Error::source(&e).is_some());

        let e = DetectError::from(decamouflage_metrics::MetricError::InvalidParameter {
            message: "x".into(),
        });
        assert!(std::error::Error::source(&e).is_some());

        let e = DetectError::InvalidCalibration { message: "empty".into() };
        assert!(e.to_string().contains("empty"));
        assert!(std::error::Error::source(&e).is_none());

        let e = DetectError::InvalidConfig { message: "bad".into() };
        assert!(e.to_string().contains("bad"));

        let e = DetectError::CheckpointMismatch { message: "shard 2/3 appears twice".into() };
        assert!(e.to_string().contains("checkpoint mismatch: shard 2/3 appears twice"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DetectError>();
        assert_send_sync::<ScoreError>();
    }

    #[test]
    fn score_error_display_names_index_method_and_cause() {
        let e = ScoreError::new(ScoreFault::DegenerateDimensions { width: 0, height: 4 })
            .at_index(7)
            .for_method(MethodId::Csp);
        let message = e.to_string();
        assert!(message.contains("image 7"), "{message}");
        assert!(message.contains("steganalysis/csp"), "{message}");
        assert!(message.contains("0x4"), "{message}");
    }

    #[test]
    fn detect_cause_unwraps_back_to_the_original_error() {
        let original = DetectError::InvalidConfig { message: "inner".into() };
        let wrapped = ScoreError::detect(3, original);
        match DetectError::from(wrapped) {
            DetectError::InvalidConfig { message } => assert_eq!(message, "inner"),
            other => panic!("expected the inner error back, got {other:?}"),
        }
    }

    #[test]
    fn non_detect_causes_wrap_into_a_score_variant() {
        let e = DetectError::from(ScoreError::injected(5));
        match &e {
            DetectError::Score(inner) => {
                assert_eq!(inner.index, 5);
                assert!(matches!(inner.cause, ScoreFault::Injected));
            }
            other => panic!("expected Score variant, got {other:?}"),
        }
        assert!(e.to_string().contains("injected fault"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn panic_payloads_stringify() {
        let e = ScoreError::panicked(1, Box::new("str payload"));
        assert!(e.is_panic());
        assert!(e.to_string().contains("str payload"));
        let e = ScoreError::panicked(1, Box::new(String::from("string payload")));
        assert!(e.to_string().contains("string payload"));
        let e = ScoreError::panicked(1, Box::new(42usize));
        assert!(e.to_string().contains("non-string panic payload"));
    }
}
