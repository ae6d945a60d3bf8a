//! Run-time monitoring for deployed detectors.
//!
//! The paper's online mode screens a live request stream with thresholds
//! calibrated offline. Deployments additionally need to notice when the
//! *benign* traffic drifts away from the calibration distribution (new
//! camera, new content mix), because percentile thresholds silently rot.
//! [`DetectionMonitor`] screens with one calibrated engine method, keeps
//! rolling statistics of recent scores and verdicts, and raises a drift
//! warning when the recent benign-score mean wanders too many calibration
//! standard deviations from the calibration mean.

use crate::engine::DetectionEngine;
use crate::method::{MethodId, MethodSet};
use crate::threshold::Threshold;
use crate::DetectError;
use decamouflage_imaging::Image;
use decamouflage_telemetry::{Counter, Gauge, Telemetry};
use std::collections::VecDeque;

/// Verdict plus bookkeeping for one screened image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorVerdict {
    /// The monitored method's score.
    pub score: f64,
    /// Whether the threshold flags the image as an attack.
    pub is_attack: bool,
    /// Whether the rolling benign-score window currently signals drift.
    pub drift_alert: bool,
}

/// Rolling statistics over the most recent screened images.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorStats {
    /// Images screened in total.
    pub screened: usize,
    /// Images flagged as attacks in total.
    pub flagged: usize,
    /// Images quarantined in total: the engine pass errored or produced a
    /// non-finite score. Quarantined images are counted here only — they
    /// are neither screened, nor flagged, nor admitted to the rolling
    /// drift window.
    pub quarantined: usize,
    /// Mean score of the current rolling window (accepted images only).
    pub window_mean: f64,
    /// Number of scores in the rolling window.
    pub window_len: usize,
}

/// Pre-resolved telemetry handles for one monitor, labelled with the
/// monitored method's name. All no-ops under a disabled [`Telemetry`].
#[derive(Debug, Clone, Default)]
struct MonitorMetrics {
    telemetry: Telemetry,
    screened: Counter,
    flagged: Counter,
    quarantined: Counter,
    drift_alerts: Counter,
    window_mean: Gauge,
    window_len: Gauge,
}

impl MonitorMetrics {
    fn new(telemetry: Telemetry, detector: &str) -> Self {
        let counter = |name| telemetry.counter(name, &[("detector", detector)]);
        let gauge = |name| telemetry.gauge(name, &[("detector", detector)]);
        Self {
            screened: counter("decam_monitor_screened_total"),
            flagged: counter("decam_monitor_flagged_total"),
            quarantined: counter("decam_monitor_quarantined_total"),
            drift_alerts: counter("decam_monitor_drift_alerts_total"),
            window_mean: gauge("decam_monitor_window_mean"),
            window_len: gauge("decam_monitor_window_len"),
            telemetry,
        }
    }
}

/// One calibrated engine method with rolling statistics and drift
/// detection.
#[derive(Debug)]
pub struct DetectionMonitor {
    engine: DetectionEngine,
    method: MethodId,
    threshold: Threshold,
    calibration_mean: f64,
    calibration_std: f64,
    drift_sigmas: f64,
    window: VecDeque<f64>,
    window_capacity: usize,
    screened: usize,
    flagged: usize,
    quarantined: usize,
    metrics: MonitorMetrics,
}

impl DetectionMonitor {
    /// Monitors method `id` of `engine`'s configuration. The monitor scores
    /// with a copy of the engine restricted to `id`, so each screen pays
    /// for one method only.
    ///
    /// `calibration_mean` / `calibration_std` describe the benign score
    /// distribution observed during calibration (e.g. the mean and
    /// standard deviation of the benign column of a
    /// [`Calibration`](crate::calibrate::Calibration)); `window` is the
    /// rolling window length and `drift_sigmas` the alert distance.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidConfig`] when the engine has the
    /// method disabled, for a zero window, negative `drift_sigmas` or
    /// non-finite calibration statistics.
    pub fn new(
        engine: &DetectionEngine,
        id: MethodId,
        threshold: Threshold,
        calibration_mean: f64,
        calibration_std: f64,
        window: usize,
        drift_sigmas: f64,
    ) -> Result<Self, DetectError> {
        if !engine.methods().contains(id) {
            return Err(DetectError::InvalidConfig {
                message: format!("engine has method {} disabled", id.name()),
            });
        }
        if window == 0 {
            return Err(DetectError::InvalidConfig { message: "window must be >= 1".into() });
        }
        // NaN must fail too, hence the explicit is_nan checks.
        if drift_sigmas <= 0.0
            || drift_sigmas.is_nan()
            || !calibration_mean.is_finite()
            || calibration_std < 0.0
            || calibration_std.is_nan()
        {
            return Err(DetectError::InvalidConfig {
                message: "drift parameters must be positive and finite".into(),
            });
        }
        Ok(Self {
            engine: engine.clone().with_methods(MethodSet::of(&[id])),
            method: id,
            threshold,
            calibration_mean,
            calibration_std,
            drift_sigmas,
            window: VecDeque::with_capacity(window),
            window_capacity: window,
            screened: 0,
            flagged: 0,
            quarantined: 0,
            metrics: MonitorMetrics::new(decamouflage_telemetry::global(), id.name()),
        })
    }

    /// Attaches a [`Telemetry`] handle: an enabled handle mirrors the
    /// monitor's screened/flagged/quarantined counters, drift alerts,
    /// and rolling-window statistics into its registry (labelled
    /// `detector=<method name>`). The default is the process-global handle
    /// at construction time. Telemetry never changes verdicts.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.metrics = MonitorMetrics::new(telemetry, self.method.name());
        self
    }

    /// Screens one image: scores it with one
    /// [`DetectionEngine::score_resilient`] pass (validation, then
    /// scoring), classifies it, and (for accepted images) updates the
    /// rolling benign window.
    ///
    /// A refused or failed pass or a non-finite score quarantines the
    /// image instead: the [`MonitorStats::quarantined`] counter is bumped,
    /// an error is returned, and neither the screened/flagged counters nor
    /// the drift window move — a burst of quarantined inputs cannot mask
    /// or fake a drift alert.
    ///
    /// # Errors
    ///
    /// The engine's own [`DetectError`] for a scoring error; a validation
    /// refusal, a recovered panic or a non-finite score is reported as
    /// [`DetectError::Score`] with its
    /// [`ScoreFault`](crate::ScoreFault) cause.
    pub fn screen(&mut self, image: &Image) -> Result<MonitorVerdict, DetectError> {
        let score = match self.engine.score_resilient(image) {
            Ok(scores) => scores.get(self.method),
            Err(err) => {
                self.quarantined += 1;
                self.metrics.quarantined.inc();
                return Err(err.into());
            }
        };
        if !score.is_finite() {
            self.quarantined += 1;
            self.metrics.quarantined.inc();
            return Err(DetectError::Score(Box::new(crate::error::ScoreError::new(
                crate::error::ScoreFault::NonFiniteScore { score },
            ))));
        }
        let is_attack = self.threshold.is_attack(score);
        self.screened += 1;
        self.metrics.screened.inc();
        if is_attack {
            self.flagged += 1;
            self.metrics.flagged.inc();
        } else {
            if self.window.len() == self.window_capacity {
                self.window.pop_front();
            }
            self.window.push_back(score);
        }
        let drift_alert = self.drift_alert();
        if self.metrics.telemetry.is_enabled() {
            // The window-mean recomputation only happens with telemetry
            // on; verdicts never depend on it.
            if drift_alert {
                self.metrics.drift_alerts.inc();
            }
            self.metrics.window_len.set(self.window.len() as f64);
            let mean = if self.window.is_empty() {
                0.0
            } else {
                self.window.iter().sum::<f64>() / self.window.len() as f64
            };
            self.metrics.window_mean.set(mean);
        }
        Ok(MonitorVerdict { score, is_attack, drift_alert })
    }

    /// Whether the rolling window mean has drifted more than
    /// `drift_sigmas` calibration standard deviations from the calibration
    /// mean. Requires a full window; always `false` before that.
    pub fn drift_alert(&self) -> bool {
        if self.window.len() < self.window_capacity {
            return false;
        }
        let mean = self.window.iter().sum::<f64>() / self.window.len() as f64;
        let spread = self.calibration_std.max(1e-12);
        (mean - self.calibration_mean).abs() > self.drift_sigmas * spread
    }

    /// Current counters and window statistics.
    pub fn stats(&self) -> MonitorStats {
        let window_mean = if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().sum::<f64>() / self.window.len() as f64
        };
        MonitorStats {
            screened: self.screened,
            flagged: self.flagged,
            quarantined: self.quarantined,
            window_mean,
            window_len: self.window.len(),
        }
    }

    /// The monitored method.
    pub const fn method(&self) -> MethodId {
        self.method
    }

    /// The active threshold.
    pub const fn threshold(&self) -> Threshold {
        self.threshold
    }

    /// Replaces the threshold (e.g. after recalibration) and clears the
    /// rolling window.
    pub fn recalibrate(&mut self, threshold: Threshold, mean: f64, std: f64) {
        self.threshold = threshold;
        self.calibration_mean = mean;
        self.calibration_std = std;
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::Direction;
    use decamouflage_imaging::filter::RankKind;
    use decamouflage_imaging::{Channels, Size};

    /// The test-only method scores an image's mean intensity, so flat
    /// images score their level, `f64::MAX`-filled ones overflow to an
    /// infinite mean, and NaN-filled ones fail validation.
    fn flat(v: f64) -> Image {
        Image::filled(2, 2, Channels::Gray, v)
    }

    /// An engine running only the method under test.
    fn dummy_engine() -> DetectionEngine {
        DetectionEngine::new(Size::square(2)).with_methods(MethodSet::of(&[MethodId::DummyMean]))
    }

    fn monitor(window: usize) -> DetectionMonitor {
        DetectionMonitor::new(
            &dummy_engine(),
            MethodId::DummyMean,
            Threshold::new(100.0, Direction::AboveIsAttack),
            50.0, // calibration mean
            5.0,  // calibration std
            window,
            3.0,
        )
        .unwrap()
    }

    #[test]
    fn screens_and_counts() {
        let mut m = monitor(4);
        assert!(!m.screen(&flat(40.0)).unwrap().is_attack);
        assert!(m.screen(&flat(150.0)).unwrap().is_attack);
        let stats = m.stats();
        assert_eq!(stats.screened, 2);
        assert_eq!(stats.flagged, 1);
        assert_eq!(stats.window_len, 1); // only the accepted image
    }

    #[test]
    fn no_drift_alert_with_in_distribution_traffic() {
        let mut m = monitor(4);
        for v in [48.0, 52.0, 49.0, 51.0, 50.0] {
            let verdict = m.screen(&flat(v)).unwrap();
            assert!(!verdict.drift_alert, "false drift alarm at {v}");
        }
    }

    #[test]
    fn drift_alert_fires_on_shifted_traffic() {
        let mut m = monitor(4);
        let mut alerted = false;
        // Benign (below threshold 100) but far above the calibration mean.
        for _ in 0..6 {
            alerted |= m.screen(&flat(80.0)).unwrap().drift_alert;
        }
        assert!(alerted, "shifted benign traffic must raise the drift alert");
    }

    #[test]
    fn window_must_fill_before_alerting() {
        let mut m = monitor(8);
        for _ in 0..7 {
            assert!(!m.screen(&flat(90.0)).unwrap().drift_alert);
        }
    }

    #[test]
    fn attacks_do_not_pollute_the_benign_window() {
        let mut m = monitor(2);
        // Attack-scored images are excluded from the window.
        m.screen(&flat(200.0)).unwrap();
        m.screen(&flat(210.0)).unwrap();
        assert_eq!(m.stats().window_len, 0);
        assert!(!m.drift_alert());
    }

    #[test]
    fn recalibrate_resets_the_window() {
        let mut m = monitor(2);
        m.screen(&flat(80.0)).unwrap();
        m.screen(&flat(82.0)).unwrap();
        assert!(m.drift_alert());
        m.recalibrate(Threshold::new(120.0, Direction::AboveIsAttack), 80.0, 5.0);
        assert!(!m.drift_alert());
        assert_eq!(m.threshold().value(), 120.0);
        assert_eq!(m.stats().window_len, 0);
    }

    #[test]
    fn constructor_validates() {
        let engine = dummy_engine();
        let t = Threshold::new(1.0, Direction::AboveIsAttack);
        let id = MethodId::DummyMean;
        assert!(DetectionMonitor::new(&engine, id, t, 0.0, 1.0, 0, 3.0).is_err());
        assert!(DetectionMonitor::new(&engine, id, t, 0.0, 1.0, 4, -1.0).is_err());
        assert!(DetectionMonitor::new(&engine, id, t, f64::NAN, 1.0, 4, 3.0).is_err());
    }

    #[test]
    fn engine_method_monitor_matches_standalone_detector() {
        let engine = DetectionEngine::new(Size::square(8));
        let t = Threshold::new(1e9, Direction::AboveIsAttack);
        let mut m =
            DetectionMonitor::new(&engine, MethodId::ScalingMse, t, 0.0, 1.0, 4, 3.0).unwrap();
        let image = Image::from_fn_gray(24, 24, |x, y| ((x * 7 + y * 3) % 211) as f64);
        let verdict = m.screen(&image).unwrap();
        let standalone = engine.reference_score(MethodId::ScalingMse, &image).unwrap();
        assert_eq!(verdict.score, standalone);
        assert_eq!(m.method(), MethodId::ScalingMse);

        // A disabled method is rejected up front.
        let gated =
            DetectionEngine::new(Size::square(8)).with_methods(MethodSet::of(&[MethodId::Csp]));
        let err = DetectionMonitor::new(&gated, MethodId::ScalingMse, t, 0.0, 1.0, 4, 3.0)
            .expect_err("disabled method must be rejected");
        assert!(err.to_string().contains("scaling/mse"));
    }

    #[test]
    fn quarantined_images_are_counted_separately() {
        // A NaN pixel fails validation and a mean that overflows is a
        // non-finite score; both quarantine. 48, 150 and 52 are clean.
        let mut m = monitor(4);
        assert!(!m.screen(&flat(48.0)).unwrap().is_attack);
        let pixel_err = m.screen(&flat(f64::NAN)).unwrap_err();
        assert!(pixel_err.to_string().contains("non-finite pixel"), "{pixel_err}");
        assert!(m.screen(&flat(150.0)).unwrap().is_attack);
        let score_err = m.screen(&flat(f64::MAX)).unwrap_err();
        assert!(score_err.to_string().contains("non-finite score"), "{score_err}");
        m.screen(&flat(52.0)).unwrap();

        let stats = m.stats();
        assert_eq!(stats.quarantined, 2);
        assert_eq!(stats.screened, 3, "quarantined images are not screened");
        assert_eq!(stats.flagged, 1);
        assert_eq!(stats.window_len, 2, "only accepted images reach the window");

        // A failed engine pass quarantines the same way.
        let broken = dummy_engine().with_filter(0, RankKind::Minimum);
        let t = Threshold::new(100.0, Direction::AboveIsAttack);
        let mut m = DetectionMonitor::new(&broken, MethodId::DummyMean, t, 50.0, 5.0, 4, 3.0)
            .expect("monitor");
        assert!(m.screen(&flat(48.0)).is_err());
        assert_eq!(m.stats().quarantined, 1);
        assert_eq!(m.stats().screened, 0);
    }

    #[test]
    fn drift_alert_ignores_quarantined_samples() {
        // Every other image scores an infinite mean. If those samples
        // leaked into the window they would stall it below capacity (or
        // poison its mean); the accepted in-distribution traffic must
        // still never alert.
        let mut m = monitor(4);
        let overflow = f64::MAX;
        for v in [48.0, overflow, 52.0, overflow, 49.0, overflow, 51.0, overflow, 50.0] {
            if let Ok(verdict) = m.screen(&flat(v)) {
                assert!(!verdict.drift_alert, "false drift alarm at {v}");
            }
        }
        assert!(!m.drift_alert());
        let stats = m.stats();
        assert_eq!(stats.quarantined, 4);
        assert_eq!(stats.window_len, 4, "the window still filled from accepted images");
        assert!((stats.window_mean - 50.0).abs() < 2.0);
    }

    #[test]
    fn accessors_and_debug() {
        let m = monitor(2);
        assert_eq!(m.threshold().value(), 100.0);
        assert_eq!(m.method(), MethodId::DummyMean);
        assert!(format!("{m:?}").contains("DetectionMonitor"));
    }
}
