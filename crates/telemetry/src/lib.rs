//! Dependency-free operational telemetry for the Decamouflage pipeline.
//!
//! The crate is pure `std` (the workspace is offline) and is built
//! around one rule: **telemetry must never perturb detection**. The
//! [`Telemetry`] handle is a cheap clone around an optional
//! [`MetricsRegistry`]; when disabled it holds `None` and every
//! operation — including [`SpanTimer`] construction — is a no-op that
//! never calls [`std::time::Instant::now`], allocates, or takes a lock.
//! Scores therefore stay bit-identical with telemetry on or off, which
//! the bench crate asserts.
//!
//! # Layout
//!
//! - [`histogram`]: log-bucketed latency [`Histogram`] with exact
//!   moments, merge, and quantiles.
//! - [`registry`]: the atomic [`MetricsRegistry`] of named counters,
//!   gauges, and histograms.
//! - [`export`]: deterministic Prometheus-text and JSON exporters.
//! - [`parse`]: a strict parser for the exported Prometheus text, used
//!   by CI to prove the exposition round-trips.
//!
//! # Example
//!
//! ```
//! use decamouflage_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! telemetry.counter("decam_jobs_total", &[]).inc();
//! {
//!     let _span = telemetry.span("decam_stage_seconds", &[("stage", "dft")]);
//!     // ... timed work ...
//! }
//! let text = telemetry.prometheus_text().unwrap();
//! assert!(text.contains("decam_jobs_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod parse;
pub mod registry;

pub use export::{escape_json, json_number, to_json, to_prometheus_text};
pub use histogram::{BucketMismatch, Histogram, HistogramSnapshot, DEFAULT_LATENCY_BOUNDS};
pub use parse::{parse_prometheus_text, FamilyKind, ParseError, ParsedMetrics};
pub use registry::{CounterCell, GaugeCell, Labels, MetricsRegistry, RegistrySnapshot};

use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A shareable telemetry handle: either enabled (wrapping a registry)
/// or disabled (every operation a no-op).
///
/// Cloning is a single `Option<Arc>` clone. The default is disabled, so
/// types embedding a `Telemetry` field pay nothing until a caller opts
/// in via [`Telemetry::enabled`] or [`install_global`].
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<MetricsRegistry>>,
}

impl Telemetry {
    /// A disabled handle: all recording operations are no-ops.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// An enabled handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Self { registry: Some(Arc::new(MetricsRegistry::new())) }
    }

    /// An enabled handle sharing an existing registry.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Self { registry: Some(registry) }
    }

    /// True when this handle records into a registry.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// A counter handle for `(name, labels)`; a no-op cell when
    /// disabled.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter { cell: self.registry.as_ref().map(|r| r.counter(name, labels)) }
    }

    /// A gauge handle for `(name, labels)`; a no-op cell when disabled.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge { cell: self.registry.as_ref().map(|r| r.gauge(name, labels)) }
    }

    /// A histogram handle for `(name, labels)`; a no-op cell when
    /// disabled.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        HistogramHandle { cell: self.registry.as_ref().map(|r| r.histogram(name, labels)) }
    }

    /// Starts an RAII span that records its elapsed seconds into the
    /// named histogram when dropped. When disabled, no clock is read.
    pub fn span(&self, name: &str, labels: &[(&str, &str)]) -> SpanTimer {
        self.histogram(name, labels).span()
    }

    /// Snapshot of the backing registry; `None` when disabled.
    pub fn snapshot(&self) -> Option<RegistrySnapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }

    /// Prometheus text exposition of the current state; `None` when
    /// disabled.
    pub fn prometheus_text(&self) -> Option<String> {
        self.snapshot().map(|s| to_prometheus_text(&s))
    }

    /// JSON export of the current state; `None` when disabled.
    pub fn json(&self) -> Option<String> {
        self.snapshot().map(|s| to_json(&s))
    }
}

/// A counter handle; a no-op when obtained from a disabled
/// [`Telemetry`].
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Adds `delta` (saturating).
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.add(delta);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value; `0` when disabled.
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map(|c| c.value()).unwrap_or(0)
    }
}

/// A gauge handle; a no-op when obtained from a disabled [`Telemetry`].
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.set(value);
        }
    }

    /// Adds `delta` (negative decrements).
    pub fn add(&self, delta: f64) {
        if let Some(cell) = &self.cell {
            cell.add(delta);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value; `0.0` when disabled.
    pub fn value(&self) -> f64 {
        self.cell.as_ref().map(|c| c.value()).unwrap_or(0.0)
    }
}

/// A histogram handle; a no-op when obtained from a disabled
/// [`Telemetry`].
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle {
    cell: Option<Arc<Histogram>>,
}

impl HistogramHandle {
    /// Records one sample.
    pub fn record(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.record(value);
        }
    }

    /// Starts an RAII span recording its elapsed seconds into this
    /// histogram on drop. Pre-resolving the handle and spanning from it
    /// keeps the hot path free of registry lookups; when the handle is
    /// disabled no clock is read.
    pub fn span(&self) -> SpanTimer {
        SpanTimer { inner: self.cell.as_ref().map(|cell| (Instant::now(), Arc::clone(cell))) }
    }

    /// Snapshot of the histogram; `None` when disabled.
    pub fn snapshot(&self) -> Option<HistogramSnapshot> {
        self.cell.as_ref().map(|c| c.snapshot())
    }
}

/// An RAII stage timer: created by [`Telemetry::span`], records the
/// elapsed wall-clock seconds into its histogram on drop. When the
/// originating handle is disabled, construction and drop are both
/// no-ops and the clock is never read.
#[derive(Debug)]
pub struct SpanTimer {
    inner: Option<(Instant, Arc<Histogram>)>,
}

impl SpanTimer {
    /// Discards the span without recording (e.g. on an error path that
    /// should not pollute latency statistics).
    pub fn cancel(mut self) {
        self.inner = None;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((started, histogram)) = self.inner.take() {
            histogram.record(started.elapsed().as_secs_f64());
        }
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Installs a process-global telemetry handle. Returns `false` if one
/// was already installed (first install wins — the global is immutable
/// for the life of the process so hot paths can cache handles).
pub fn install_global(telemetry: Telemetry) -> bool {
    GLOBAL.set(telemetry).is_ok()
}

/// The process-global telemetry handle; disabled until
/// [`install_global`] is called.
pub fn global() -> Telemetry {
    GLOBAL.get().cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        let counter = telemetry.counter("decam_x_total", &[]);
        counter.inc();
        assert_eq!(counter.value(), 0);
        let gauge = telemetry.gauge("decam_g", &[]);
        gauge.set(9.0);
        assert_eq!(gauge.value(), 0.0);
        let histogram = telemetry.histogram("decam_h", &[]);
        histogram.record(1.0);
        assert!(histogram.snapshot().is_none());
        drop(telemetry.span("decam_h", &[]));
        assert!(telemetry.snapshot().is_none());
        assert!(telemetry.prometheus_text().is_none());
    }

    #[test]
    fn span_records_into_histogram() {
        let telemetry = Telemetry::enabled();
        {
            let _span = telemetry.span("decam_stage_seconds", &[("stage", "test")]);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let snapshot = telemetry
            .histogram("decam_stage_seconds", &[("stage", "test")])
            .snapshot()
            .expect("enabled");
        assert_eq!(snapshot.count(), 1);
        assert!(snapshot.sum() > 0.0);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let telemetry = Telemetry::enabled();
        telemetry.span("decam_stage_seconds", &[]).cancel();
        let snapshot = telemetry.histogram("decam_stage_seconds", &[]).snapshot().expect("enabled");
        assert_eq!(snapshot.count(), 0);
    }

    #[test]
    fn clones_share_the_registry() {
        let telemetry = Telemetry::enabled();
        let clone = telemetry.clone();
        clone.counter("decam_shared_total", &[]).inc();
        assert_eq!(telemetry.counter("decam_shared_total", &[]).value(), 1);
    }

    #[test]
    fn global_defaults_to_disabled() {
        // Never install in tests — the global is process-wide and other
        // tests in this binary must see the default.
        assert!(!global().is_enabled() || GLOBAL.get().is_some());
    }
}
