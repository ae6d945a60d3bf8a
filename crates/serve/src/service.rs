//! The detection service: the paper's [`Ensemble`] (engine + calibrated
//! thresholds + degrade policy), mapped onto typed request outcomes.
//!
//! This layer is transport-free — it consumes bytes/[`ImageSource`]s
//! and a [`CancelToken`], and produces [`CheckOutcome`]/[`ScanOutcome`]
//! values the server serialises. Keeping it off the socket makes the
//! status mapping unit-testable without a listener.

use crate::json;
use decamouflage_core::ensemble::{DegradePolicy, EnsembleDecision};
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{
    CancelToken, DetectError, Ensemble, ImageSource, ScoreFault, ScoreVector, StreamConfig,
};
use decamouflage_imaging::codec::{decode_auto_into, sniff, ImageFormat, SampleAlloc};
use decamouflage_imaging::{Image, ImagingError, Size};
use decamouflage_telemetry::Telemetry;

/// The engine methods the service votes with — the paper's three-method
/// ensemble (scaling/MSE, filtering/SSIM, CSP).
pub use decamouflage_core::ensemble::PAPER_METHODS as SERVICE_METHODS;

/// Why a request body failed to decode, split along the `422` fault
/// taxonomy: a body no codec claims (or a claimed-but-unsupported
/// feature) is a different client error from a structurally broken
/// file in a supported format.
#[derive(Debug)]
pub enum DecodeFailure {
    /// No codec claims the magic bytes, or the claimed format uses an
    /// unsupported feature (fault kind `unsupported-format`).
    Unsupported(String),
    /// A supported format that is structurally broken — truncated,
    /// checksum mismatch, bad header (fault kind `unreadable`).
    Unreadable(String),
}

impl DecodeFailure {
    /// The stable kebab-case fault tag this failure quarantines under.
    pub fn fault(&self) -> &'static str {
        match self {
            Self::Unsupported(_) => "unsupported-format",
            Self::Unreadable(_) => "unreadable",
        }
    }

    /// Consumes the failure, yielding the human-readable detail.
    pub fn into_detail(self) -> String {
        match self {
            Self::Unsupported(detail) | Self::Unreadable(detail) => detail,
        }
    }
}

/// Decodes an image body by sniffing its magic bytes (PNG, JPEG, BMP,
/// PNM), allocating the sample buffer on the heap. Streaming callers
/// should use [`decode_image_into`] with a `BufferPool` allocator.
///
/// # Errors
///
/// See [`decode_image_into`].
pub fn decode_image(body: &[u8]) -> Result<(ImageFormat, Image), DecodeFailure> {
    decode_image_into(body, &mut |n| vec![0.0; n])
}

/// Decodes an image body by sniffing its magic bytes, obtaining the
/// sample buffer from `alloc` so streaming callers recycle pool
/// buffers. Returns the sniffed format for per-format telemetry.
///
/// # Errors
///
/// [`DecodeFailure::Unsupported`] when no codec claims the body (or a
/// claimed format uses an unsupported feature), [`DecodeFailure::Unreadable`]
/// when a supported format is structurally broken.
pub fn decode_image_into(
    body: &[u8],
    alloc: SampleAlloc<'_>,
) -> Result<(ImageFormat, Image), DecodeFailure> {
    decode_auto_into(body, alloc).map_err(|err| match err {
        ImagingError::Unsupported { .. } => DecodeFailure::Unsupported(err.to_string()),
        other => DecodeFailure::Unreadable(other.to_string()),
    })
}

/// Counts one body decode on `decam_codec_decode_total{format,outcome}`
/// — the same family `DirectorySource` uses, so `/metrics` reports
/// filesystem and HTTP decodes uniformly. Failed sniffs count under
/// `format="unknown"`.
pub(crate) fn record_decode(telemetry: &Telemetry, body: &[u8], ok: bool) {
    let format = sniff(body).map_or("unknown", ImageFormat::name);
    let outcome = if ok { "ok" } else { "error" };
    telemetry
        .counter("decam_codec_decode_total", &[("format", format), ("outcome", outcome)])
        .inc();
}

/// The typed outcome of one `/check`, mapped 1:1 onto an HTTP status.
#[derive(Debug)]
pub enum CheckOutcome {
    /// `200` — scored and voted.
    Verdict {
        /// The engine's per-method scores.
        scores: ScoreVector,
        /// The ensemble decision over [`SERVICE_METHODS`].
        verdict: EnsembleDecision,
    },
    /// `422` — the input was quarantined by the [`ScoreFault`] taxonomy
    /// (`fault` is [`ScoreFault::kind`]; decode failures use
    /// `unsupported-format` for bodies no codec claims and `unreadable`
    /// for structurally broken files, per [`DecodeFailure`]).
    Quarantined {
        /// Stable kebab-case fault tag.
        fault: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// `500` — scoring panicked; the panic was recovered and the slot
    /// quarantined, but the failure is the server's, not the input's.
    Panicked {
        /// The recovered panic message.
        detail: String,
    },
    /// `504` — the request deadline expired between pipeline stages.
    Expired,
}

/// One position's result within a `/scan`.
#[derive(Debug)]
pub enum ScanEntry {
    /// The image scored; the ensemble voted.
    Scored(EnsembleDecision),
    /// The position was quarantined (`fault` = [`ScoreFault::kind`]).
    Quarantined {
        /// Stable kebab-case fault tag.
        fault: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

/// Aggregate result of one `/scan` stream.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Per-position entries in stream order.
    pub entries: Vec<ScanEntry>,
    /// Entries flagged as attacks.
    pub flagged: usize,
    /// Entries voted benign.
    pub benign: usize,
    /// Entries quarantined.
    pub quarantined: usize,
    /// Entries decided with at least one abstaining member.
    pub degraded: usize,
    /// Whether the stream stopped early on an expired [`CancelToken`]
    /// (→ `504`, with the partial counts in the body).
    pub expired: bool,
}

/// The paper's ensemble behind the HTTP routes.
#[derive(Debug)]
pub struct DetectionService {
    ensemble: Ensemble,
    telemetry: Telemetry,
}

impl DetectionService {
    /// Builds the service for `target` with calibrated `thresholds`.
    ///
    /// # Errors
    ///
    /// A message naming the first of [`SERVICE_METHODS`] missing from
    /// the threshold set.
    pub fn new(
        target: Size,
        thresholds: &ThresholdSet,
        policy: DegradePolicy,
    ) -> Result<Self, String> {
        let ensemble = Ensemble::paper(target, thresholds, policy).map_err(|e| e.to_string())?;
        Ok(Self { ensemble, telemetry: decamouflage_telemetry::global() })
    }

    /// The configured degrade policy.
    pub fn policy(&self) -> DegradePolicy {
        self.ensemble.degrade_policy()
    }

    /// Votes on one score vector, mapping a refused vote onto the
    /// quarantine `(fault, detail)` pair: under [`DegradePolicy::Strict`]
    /// a non-finite member score quarantines the request instead of
    /// voting benign silently.
    fn vote(&self, scores: &ScoreVector) -> Result<EnsembleDecision, (&'static str, String)> {
        self.ensemble.vote(Ok(scores)).map_err(|err| match err {
            DetectError::Score(err) => match err.method {
                Some(id) => (err.cause.kind(), format!("{} produced {}", id.name(), err.cause)),
                None => (err.cause.kind(), err.cause.to_string()),
            },
            other => ("detect", other.to_string()),
        })
    }

    /// Scores one request body end-to-end: decode → engine →
    /// threshold vote, with a cooperative deadline check between every
    /// stage. An expired token never interrupts in-flight work — it
    /// refuses the *next* stage, so a slot is always either scored or
    /// quarantined, never leaked.
    pub fn check_bytes(&self, body: &[u8], cancel: &CancelToken) -> CheckOutcome {
        if cancel.is_expired() {
            return CheckOutcome::Expired;
        }
        let image = {
            let _decode = self.telemetry.span("decam_engine_stage_seconds", &[("stage", "decode")]);
            let decoded = decode_image(body);
            record_decode(&self.telemetry, body, decoded.is_ok());
            match decoded {
                Ok((_, image)) => image,
                Err(failure) => {
                    return CheckOutcome::Quarantined {
                        fault: failure.fault(),
                        detail: failure.into_detail(),
                    }
                }
            }
        };
        if cancel.is_expired() {
            return CheckOutcome::Expired;
        }
        let scores = match self.ensemble.engine().score_resilient(&image) {
            Ok(scores) => scores,
            Err(err) => {
                let detail = err.to_string();
                return match err.cause {
                    ScoreFault::Panicked { .. } => CheckOutcome::Panicked { detail },
                    ref cause => CheckOutcome::Quarantined { fault: cause.kind(), detail },
                };
            }
        };
        if cancel.is_expired() {
            return CheckOutcome::Expired;
        }
        match self.vote(&scores) {
            Ok(verdict) => CheckOutcome::Verdict { scores, verdict },
            Err((fault, detail)) => CheckOutcome::Quarantined { fault, detail },
        }
    }

    /// Streams a source through the engine with bounded memory
    /// (`chunk_size` images resident at most) and the request's
    /// [`CancelToken`] armed between pipeline stages.
    ///
    /// Per-slot failures quarantine the slot — including recovered
    /// panics, which on the batch path are a position-level fault, not a
    /// request-level 500.
    pub fn scan_source(
        &self,
        source: &mut dyn ImageSource,
        cancel: &CancelToken,
        chunk_size: usize,
    ) -> ScanOutcome {
        let config = StreamConfig::default()
            .with_chunk_size(chunk_size)
            .with_threads(1)
            .with_pool_capacity(4)
            .with_cancel(cancel.clone());
        let mut entries = Vec::new();
        let (mut flagged, mut benign, mut quarantined, mut degraded) = (0, 0, 0, 0);
        let summary = self.ensemble.engine().score_stream(source, &config, |_index, result| {
            let entry = match result {
                Ok(scores) => match self.vote(&scores) {
                    Ok(verdict) => ScanEntry::Scored(verdict),
                    Err((fault, detail)) => ScanEntry::Quarantined { fault, detail },
                },
                Err(err) => {
                    let detail = err.to_string();
                    ScanEntry::Quarantined { fault: err.cause.kind(), detail }
                }
            };
            match &entry {
                ScanEntry::Scored(verdict) => {
                    if verdict.is_attack {
                        flagged += 1;
                    } else {
                        benign += 1;
                    }
                    degraded += usize::from(!verdict.is_complete());
                }
                ScanEntry::Quarantined { .. } => quarantined += 1,
            }
            entries.push(entry);
        });
        ScanOutcome { entries, flagged, benign, quarantined, degraded, expired: summary.cancelled }
    }
}

impl CheckOutcome {
    /// Renders the `/check` response body.
    pub fn to_json(&self) -> String {
        match self {
            Self::Verdict { scores, verdict } => {
                let mut body = String::from("{");
                body.push_str(&format!(
                    "\"verdict\":\"{}\",\"degraded\":{}",
                    if verdict.is_attack { "attack" } else { "benign" },
                    !verdict.is_complete()
                ));
                body.push_str(",\"scores\":{");
                let rendered: Vec<String> = SERVICE_METHODS
                    .iter()
                    .map(|&id| format!("\"{}\":{}", id.name(), json::number(scores.get(id))))
                    .collect();
                body.push_str(&rendered.join(","));
                body.push_str("},\"votes\":{");
                let rendered: Vec<String> = verdict
                    .votes
                    .iter()
                    .map(|(id, vote)| format!("\"{}\":{}", id.name(), vote))
                    .collect();
                body.push_str(&rendered.join(","));
                body.push_str("},\"unavailable\":{");
                let rendered: Vec<String> = verdict
                    .unavailable
                    .iter()
                    .map(|(id, reason)| format!("\"{}\":\"{}\"", id.name(), json::escape(reason)))
                    .collect();
                body.push_str(&rendered.join(","));
                body.push_str("}}");
                body
            }
            Self::Quarantined { fault, detail } => format!(
                "{{\"error\":\"quarantined\",\"fault\":\"{fault}\",\"detail\":\"{}\"}}",
                json::escape(detail)
            ),
            Self::Panicked { detail } => {
                format!("{{\"error\":\"panic\",\"detail\":\"{}\"}}", json::escape(detail))
            }
            Self::Expired => "{\"error\":\"deadline-expired\"}".to_string(),
        }
    }

    /// The HTTP status this outcome maps to.
    pub fn status(&self) -> u16 {
        match self {
            Self::Verdict { .. } => 200,
            Self::Quarantined { .. } => 422,
            Self::Panicked { .. } => 500,
            Self::Expired => 504,
        }
    }
}

impl ScanOutcome {
    /// Renders the `/scan` response body (also used, with the partial
    /// counts, for the 504 body when the stream expired mid-way).
    pub fn to_json(&self) -> String {
        let mut body = format!(
            "{{\"images\":{},\"flagged\":{},\"benign\":{},\"quarantined\":{},\
             \"degraded\":{},\"expired\":{},\"results\":[",
            self.entries.len(),
            self.flagged,
            self.benign,
            self.quarantined,
            self.degraded,
            self.expired
        );
        let rendered: Vec<String> = self
            .entries
            .iter()
            .enumerate()
            .map(|(index, entry)| match entry {
                ScanEntry::Scored(verdict) => format!(
                    "{{\"index\":{index},\"verdict\":\"{}\",\"degraded\":{}}}",
                    if verdict.is_attack { "attack" } else { "benign" },
                    !verdict.is_complete()
                ),
                ScanEntry::Quarantined { fault, detail } => format!(
                    "{{\"index\":{index},\"quarantined\":\"{fault}\",\"detail\":\"{}\"}}",
                    json::escape(detail)
                ),
            })
            .collect();
        body.push_str(&rendered.join(","));
        body.push_str("]}");
        body
    }

    /// The HTTP status this outcome maps to.
    pub fn status(&self) -> u16 {
        if self.expired {
            504
        } else {
            200
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decamouflage_core::{Direction, MethodId, Threshold};
    use decamouflage_imaging::codec::encode_pgm;

    fn thresholds() -> ThresholdSet {
        let mut set = ThresholdSet::new();
        set.insert(MethodId::ScalingMse, Threshold::new(400.0, Direction::AboveIsAttack));
        set.insert(MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack));
        set.insert(MethodId::Csp, Threshold::new(10.0, Direction::AboveIsAttack));
        set
    }

    fn service(policy: DegradePolicy) -> DetectionService {
        DetectionService::new(Size::square(16), &thresholds(), policy).unwrap()
    }

    fn benign_image_bytes() -> Vec<u8> {
        let image = Image::from_fn_gray(48, 48, |x, y| 40.0 + ((x + y) % 32) as f64);
        encode_pgm(&image)
    }

    #[test]
    fn missing_threshold_entries_are_named() {
        let mut set = ThresholdSet::new();
        set.insert(MethodId::ScalingMse, Threshold::new(400.0, Direction::AboveIsAttack));
        set.insert(MethodId::FilteringSsim, Threshold::new(0.55, Direction::BelowIsAttack));
        let err = DetectionService::new(Size::square(16), &set, DegradePolicy::Strict).unwrap_err();
        assert!(err.contains("steganalysis/csp"), "{err}");
    }

    #[test]
    fn a_benign_image_scores_and_votes() {
        let outcome =
            service(DegradePolicy::Strict).check_bytes(&benign_image_bytes(), &CancelToken::new());
        let CheckOutcome::Verdict { scores, verdict } = &outcome else {
            panic!("expected a verdict, got {outcome:?}");
        };
        assert_eq!(verdict.votes.len(), 3);
        assert!(verdict.unavailable.is_empty());
        assert!(scores.get(MethodId::ScalingMse).is_finite());
        assert_eq!(outcome.status(), 200);
        let json = outcome.to_json();
        assert!(json.contains("\"verdict\":"), "{json}");
        assert!(json.contains("\"scaling/mse\":"), "{json}");
    }

    #[test]
    fn unknown_magic_quarantines_as_unsupported_format() {
        let outcome =
            service(DegradePolicy::Strict).check_bytes(b"not an image", &CancelToken::new());
        let CheckOutcome::Quarantined { fault, .. } = outcome else {
            panic!("expected quarantine");
        };
        assert_eq!(fault, "unsupported-format");
    }

    #[test]
    fn broken_supported_format_quarantines_as_unreadable() {
        // A real PNG signature followed by garbage: the codec claims it,
        // then fails structurally.
        let mut body = vec![137, 80, 78, 71, 13, 10, 26, 10];
        body.extend_from_slice(b"garbage after the signature");
        let outcome = service(DegradePolicy::Strict).check_bytes(&body, &CancelToken::new());
        let CheckOutcome::Quarantined { fault, .. } = outcome else {
            panic!("expected quarantine");
        };
        assert_eq!(fault, "unreadable");
    }

    #[test]
    fn a_png_body_scores_like_its_pgm_twin() {
        use decamouflage_imaging::codec::encode_png;
        let image = Image::from_fn_gray(48, 48, |x, y| 40.0 + ((x * y) % 32) as f64);
        let service = service(DegradePolicy::Strict);
        let from_png = service.check_bytes(&encode_png(&image), &CancelToken::new());
        let from_pgm = service.check_bytes(&encode_pgm(&image), &CancelToken::new());
        let (CheckOutcome::Verdict { scores: a, .. }, CheckOutcome::Verdict { scores: b, .. }) =
            (&from_png, &from_pgm)
        else {
            panic!("expected verdicts, got {from_png:?} / {from_pgm:?}");
        };
        for &method in SERVICE_METHODS {
            assert_eq!(a.get(method).to_bits(), b.get(method).to_bits(), "{method:?}");
        }
    }

    #[test]
    fn degenerate_images_carry_their_fault_kind() {
        // 1x1 is below every analysis window: the engine quarantines it.
        let tiny = encode_pgm(&Image::from_fn_gray(1, 1, |_, _| 1.0));
        let outcome = service(DegradePolicy::Strict).check_bytes(&tiny, &CancelToken::new());
        let CheckOutcome::Quarantined { fault, .. } = outcome else {
            panic!("expected quarantine");
        };
        assert!(
            fault == "below-minimum-size" || fault == "degenerate-dimensions",
            "unexpected fault {fault}"
        );
    }

    #[test]
    fn an_expired_token_refuses_every_stage() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let outcome = service(DegradePolicy::Strict).check_bytes(&benign_image_bytes(), &cancel);
        assert!(matches!(outcome, CheckOutcome::Expired));
        assert_eq!(outcome.status(), 504);
    }

    #[test]
    fn scan_streams_frames_and_counts_quarantines() {
        use decamouflage_core::stream::SliceSource;
        let service = service(DegradePolicy::Strict);
        let good = Image::from_fn_gray(48, 48, |x, y| 40.0 + ((x * y) % 32) as f64);
        let images = vec![good.clone(), good];
        let mut source = SliceSource::new(&images);
        let outcome = service.scan_source(&mut source, &CancelToken::new(), 4);
        assert_eq!(outcome.entries.len(), 2);
        assert_eq!(outcome.flagged + outcome.benign, 2);
        assert!(!outcome.expired);
        assert_eq!(outcome.status(), 200);
        let json = outcome.to_json();
        assert!(json.contains("\"images\":2"), "{json}");
    }

    #[test]
    fn scan_with_a_tripped_token_reports_expiry() {
        use decamouflage_core::stream::SliceSource;
        let service = service(DegradePolicy::Strict);
        let good = Image::from_fn_gray(48, 48, |x, y| 40.0 + ((x + y) % 32) as f64);
        let images = vec![good; 3];
        let mut source = SliceSource::new(&images);
        let cancel = CancelToken::new();
        cancel.cancel();
        let outcome = service.scan_source(&mut source, &cancel, 1);
        assert!(outcome.expired);
        assert_eq!(outcome.status(), 504);
        assert!(outcome.entries.is_empty(), "nothing pulled after expiry");
    }
}
