//! Service-level telemetry: pre-resolved handles for the hot admission
//! path, lazy lookups for labelled per-response series.

use decamouflage_telemetry::{Counter, Gauge, Telemetry};

/// Handles for the server's own metric families.
///
/// The admission decision runs on the accept thread for every incoming
/// connection, so the gauge it moves ([`ServiceMetrics::in_flight`]) is
/// resolved once at construction. Per-response counters carry a
/// `(route, status)` label pair whose cardinality is unbounded a priori,
/// so those resolve at response time — once per request, off the
/// admission path.
#[derive(Debug)]
pub struct ServiceMetrics {
    telemetry: Telemetry,
    /// `decam_http_in_flight` — admitted connections not yet finished.
    /// Returns to 0 after a graceful drain (asserted by the load
    /// generator).
    pub in_flight: Gauge,
    /// `decam_http_deadline_expired_total` — requests answered 504.
    pub deadline_expired: Counter,
}

impl ServiceMetrics {
    /// Resolves the pre-cached handles against `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Self {
        Self {
            telemetry: telemetry.clone(),
            in_flight: telemetry.gauge("decam_http_in_flight", &[]),
            deadline_expired: telemetry.counter("decam_http_deadline_expired_total", &[]),
        }
    }

    /// Counts one finished request on
    /// `decam_http_requests_total{route,status}`. `status` is the
    /// numeric code, or `"closed"` when the peer vanished before a
    /// response could be written.
    pub fn request(&self, route: &str, status: &str) {
        self.telemetry
            .counter("decam_http_requests_total", &[("route", route), ("status", status)])
            .inc();
    }

    /// Counts one shed connection on `decam_http_shed_total{reason}`
    /// (`overload` or `draining`).
    pub fn shed(&self, reason: &str) {
        self.telemetry.counter("decam_http_shed_total", &[("reason", reason)]).inc();
    }

    /// Records one request's wall latency (accept → response written)
    /// into `decam_http_request_seconds{route}`.
    pub fn latency(&self, route: &str, seconds: f64) {
        self.telemetry.histogram("decam_http_request_seconds", &[("route", route)]).record(seconds);
    }

    /// Records the time one request spent in `phase` into
    /// `decam_http_phase_seconds{route,phase}`: `read` runs from accept
    /// until the request is read (or its read fails), `queue` from then
    /// until a handler starts scoring it.
    pub fn phase(&self, route: &str, phase: &str, seconds: f64) {
        self.telemetry
            .histogram("decam_http_phase_seconds", &[("route", route), ("phase", phase)])
            .record(seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_land_under_their_documented_names() {
        let telemetry = Telemetry::enabled();
        let metrics = ServiceMetrics::new(&telemetry);
        metrics.in_flight.inc();
        metrics.request("/check", "200");
        metrics.shed("overload");
        metrics.latency("/check", 0.01);
        metrics.phase("/check", "queue", 0.002);
        metrics.deadline_expired.inc();
        let text = telemetry.prometheus_text().unwrap();
        assert!(text.contains("decam_http_in_flight 1"));
        assert!(text.contains("decam_http_requests_total{route=\"/check\",status=\"200\"} 1"));
        assert!(text.contains("decam_http_shed_total{reason=\"overload\"} 1"));
        assert!(text.contains("decam_http_request_seconds_count{route=\"/check\"} 1"));
        assert!(text.contains("decam_http_phase_seconds_count{phase=\"queue\",route=\"/check\"} 1"));
        assert!(text.contains("decam_http_deadline_expired_total 1"));
    }

    #[test]
    fn disabled_telemetry_is_a_total_no_op() {
        let metrics = ServiceMetrics::new(&Telemetry::disabled());
        metrics.in_flight.inc();
        metrics.request("/scan", "504");
        metrics.phase("/scan", "read", 0.5);
        assert_eq!(metrics.in_flight.value(), 0.0);
    }
}
