//! The detection service: the paper's [`Ensemble`] (engine + calibrated
//! thresholds + degrade policy), mapped onto typed request outcomes.
//! Every engine pass is judged by [`Ensemble::judge`], the rule the
//! CLI's `check` and `scan` apply, so an image gets the same verdict on
//! every surface, and each verdict counts on the ensemble's telemetry.
//!
//! This layer is transport-free — it consumes bytes/[`ImageSource`]s
//! and a [`CancelToken`], and produces [`CheckOutcome`]/[`ScanOutcome`]
//! values the server serialises. Keeping it off the socket makes the
//! status mapping unit-testable without a listener.

use decamouflage_core::ensemble::{DegradePolicy, EnsembleDecision, Refusal};
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::stream::ImageDecoder;
use decamouflage_core::{
    CancelToken, Ensemble, ImageSource, ScoreError, ScoreFault, ScoreVector, StreamConfig,
};
use decamouflage_imaging::Size;
use decamouflage_telemetry::{escape_json, json_number};
use std::ops::ControlFlow;
use std::sync::Arc;

/// The engine methods the service votes with — the paper's three-method
/// ensemble (scaling/MSE, filtering/SSIM, CSP).
pub use decamouflage_core::ensemble::PAPER_METHODS as SERVICE_METHODS;

/// The typed outcome of one `/check`, mapped 1:1 onto an HTTP status.
#[derive(Debug)]
pub enum CheckOutcome {
    /// `200` — the ensemble's verdict. Under a degrading policy that
    /// includes an image the engine refused: flagged, every member
    /// unavailable, every score NaN.
    Verdict {
        /// The engine's per-method scores.
        scores: ScoreVector,
        /// The ensemble decision over [`SERVICE_METHODS`].
        verdict: EnsembleDecision,
    },
    /// `422` — no verdict, by the [`ScoreFault`] taxonomy (`fault` is
    /// [`ScoreFault::kind`]): a body that never decoded, under every
    /// policy (`unsupported-format` for bodies no codec claims and
    /// `unreadable` for structurally broken files, per [`ImageDecoder`],
    /// with the codec error as the detail), or an image (or its scores)
    /// [`DegradePolicy::Strict`] refuses.
    Quarantined {
        /// Stable kebab-case fault tag.
        fault: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// `500` — scoring panicked under [`DegradePolicy::Strict`]; the panic
    /// was recovered and the slot quarantined, but the failure is the
    /// server's, not the input's. A degrading policy flags the image
    /// instead.
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
    /// The ensemble's verdict — under a degrading policy also on an image
    /// the engine refused (flagged, every member unavailable).
    Scored(EnsembleDecision),
    /// No verdict (`fault` = [`ScoreFault::kind`]): the frame never
    /// decoded, or [`DegradePolicy::Strict`] refused the image (a
    /// recovered panic included) or its scores.
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
    decoder: Arc<ImageDecoder>,
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
        let decoder = Arc::new(ImageDecoder::new(&decamouflage_telemetry::global()));
        Ok(Self { ensemble, decoder })
    }

    /// The decode path of every request body, recording on the
    /// process-global telemetry captured at construction.
    pub(crate) fn decoder(&self) -> &Arc<ImageDecoder> {
        &self.decoder
    }

    /// Test seam: records decodes on `telemetry` instead of the
    /// process-global handle, so a test can count them exactly.
    #[cfg(test)]
    pub(crate) fn with_decode_telemetry(
        mut self,
        telemetry: &decamouflage_telemetry::Telemetry,
    ) -> Self {
        self.decoder = Arc::new(ImageDecoder::new(telemetry));
        self
    }

    /// Scores one request body end-to-end: decode → engine → the
    /// ensemble's verdict, with a cooperative deadline check between
    /// every stage. An expired token never interrupts in-flight work — it
    /// refuses the *next* stage, so a slot is always either scored or
    /// quarantined, never leaked.
    pub fn check_bytes(&self, body: &[u8], cancel: &CancelToken) -> CheckOutcome {
        if cancel.is_expired() {
            return CheckOutcome::Expired;
        }
        let image = match self.decoder.decode(body, None, &mut |samples| vec![0.0; samples]) {
            Ok(image) => image,
            Err(fault) => {
                let kind = fault.kind();
                let detail = match fault {
                    ScoreFault::UnsupportedFormat { message }
                    | ScoreFault::Unreadable { message } => message,
                    other => other.to_string(),
                };
                return CheckOutcome::Quarantined { fault: kind, detail };
            }
        };
        if cancel.is_expired() {
            return CheckOutcome::Expired;
        }
        let pass = self.ensemble.engine().score_resilient(&image);
        if cancel.is_expired() {
            return CheckOutcome::Expired;
        }
        self.judge_check(pass)
    }

    /// The `/check` outcome of one engine pass: [`Ensemble::judge`]'s
    /// verdict, or the refusal as a `422` — a `500` for a recovered panic.
    fn judge_check(&self, pass: Result<ScoreVector, ScoreError>) -> CheckOutcome {
        let verdict = self.ensemble.judge(pass.as_ref()).map_err(|refusal| match refusal {
            Refusal::Failed(err) if err.is_panic() => {
                CheckOutcome::Panicked { detail: err.to_string() }
            }
            refusal => {
                CheckOutcome::Quarantined { fault: refusal.kind(), detail: refusal.to_string() }
            }
        });
        match verdict {
            Ok(verdict) => {
                // A flagged failed pass has no scores to report.
                let scores = pass.unwrap_or_else(|_| ScoreVector::splat(f64::NAN));
                CheckOutcome::Verdict { scores, verdict }
            }
            Err(outcome) => outcome,
        }
    }

    /// Streams a source through the engine with bounded memory (at most
    /// `chunk_size` pulled items resident, each decoded only when it is
    /// scored) and the request's [`CancelToken`] armed between pipeline
    /// stages.
    ///
    /// Every position is judged like a `/check` body, except that a
    /// refusal always quarantines the slot — including a recovered panic,
    /// which on the batch path is a position-level fault, not a
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
            let entry = match self.ensemble.judge(result.as_ref()) {
                Ok(verdict) => ScanEntry::Scored(verdict),
                Err(refusal) => {
                    ScanEntry::Quarantined { fault: refusal.kind(), detail: refusal.to_string() }
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
            ControlFlow::Continue(())
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
                    .map(|&id| format!("\"{}\":{}", id.name(), json_number(scores.get(id))))
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
                    .map(|(id, reason)| format!("\"{}\":\"{}\"", id.name(), escape_json(reason)))
                    .collect();
                body.push_str(&rendered.join(","));
                body.push_str("}}");
                body
            }
            Self::Quarantined { fault, detail } => format!(
                "{{\"error\":\"quarantined\",\"fault\":\"{fault}\",\"detail\":\"{}\"}}",
                escape_json(detail)
            ),
            Self::Panicked { detail } => {
                format!("{{\"error\":\"panic\",\"detail\":\"{}\"}}", escape_json(detail))
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
                    escape_json(detail)
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
    use decamouflage_imaging::Image;

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

    /// An image the engine refuses gets the verdict `check` gives it:
    /// refused by `Strict` (a recovered panic as a 500), flagged with no
    /// member voting by the degrading policies — on `/check` and `/scan`.
    #[test]
    fn a_refused_image_follows_the_degrade_policy() {
        use decamouflage_core::stream::SliceSource;
        let tiny = Image::from_fn_gray(1, 1, |_, _| 1.0);
        let panicked = || Err(ScoreError::panicked(0, Box::new("boom")));
        for policy in
            [DegradePolicy::Strict, DegradePolicy::MajorityOfAvailable, DegradePolicy::FailClosed]
        {
            let service = service(policy);
            let refused = service.check_bytes(&encode_pgm(&tiny), &CancelToken::new());
            let panic = service.judge_check(panicked());
            let images = vec![tiny.clone()];
            let scan = service.scan_source(&mut SliceSource::new(&images), &CancelToken::new(), 4);
            if policy == DegradePolicy::Strict {
                assert_eq!(refused.status(), 422, "{refused:?}");
                assert!(matches!(panic, CheckOutcome::Panicked { .. }), "{panic:?}");
                assert_eq!(panic.status(), 500);
                assert_eq!((scan.flagged, scan.quarantined), (0, 1), "{policy:?}");
                continue;
            }
            for outcome in [&refused, &panic] {
                assert_eq!(outcome.status(), 200, "{policy:?}: {outcome:?}");
                let json = outcome.to_json();
                assert!(json.contains("\"verdict\":\"attack\",\"degraded\":true"), "{json}");
                assert!(json.contains("\"votes\":{}"), "{json}");
                assert!(json.contains("\"scaling/mse\":\"NaN\""), "{json}");
            }
            assert_eq!((scan.flagged, scan.degraded, scan.quarantined), (1, 1, 0), "{policy:?}");
        }
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
