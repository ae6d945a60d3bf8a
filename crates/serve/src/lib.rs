//! Detection-as-a-service: an overload-safe, deadline-bounded HTTP
//! server over the Decamouflage detection engine.
//!
//! The crate is dependency-free — `std::net::TcpListener` plus the
//! workspace's own [`WorkerPool`](decamouflage_core::parallel::WorkerPool)
//! — and exposes four routes:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /check` | one image body → verdict JSON with per-method scores |
//! | `POST /scan` | chunked body, one image per HTTP chunk, streamed with bounded memory |
//! | `GET /metrics` | Prometheus text exposition of the process-global registry |
//! | `GET /healthz` | readiness; flips to `503 draining` first during shutdown |
//!
//! Robustness is the headline, not throughput: a bounded admission
//! queue with a typed `503 + Retry-After` shed path, per-request
//! deadlines enforced both at the socket and cooperatively between
//! pipeline stages (`504` on expiry, the handler slot released rather
//! than leaked), request-size and header limits (`413`/`431`), the
//! engine's `ScoreFault` taxonomy mapped onto HTTP statuses
//! (quarantined input → `422` with the fault kind, recovered panic →
//! `500`, degraded-voting verdicts annotated in the body), and a
//! graceful SIGTERM drain. See [`server`] for the admission state
//! machine and [`service`] for the fault→status mapping.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod service;
pub mod shutdown_signal;

pub use metrics::ServiceMetrics;
pub use server::{DrainReport, Server, ServerConfig, ServerHandle};
pub use service::{CheckOutcome, DetectionService, ScanOutcome};
