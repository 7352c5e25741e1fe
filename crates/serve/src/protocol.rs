//! The serving data model: the [`Request`] and [`Response`] enums and
//! the stable error [`codes`].
//!
//! One encoding carries them: `binary-v1`, the length-prefixed,
//! pipelined framing in [`wire`]. Each request travels in a frame whose
//! client-chosen u64 id is echoed on its response — on success *and* on
//! error — and doubles as the request's trace id. Networks travel as
//! their full graph IR, so a client can query the repository about
//! *any* network, not just a predefined set. `Shutdown` asks the whole
//! server to drain and exit. Error responses carry a stable
//! machine-readable [`codes`] string alongside the human-readable
//! message.

use gdcm_dnn::Network;
use serde::{Deserialize, Serialize};

pub mod wire;

/// Stable name of the length-prefixed binary encoding (see [`wire`]),
/// as reported by the ops `health` verb.
pub const PROTOCOL_BINARY_V1: &str = "binary-v1";

/// A client request, one per frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Repository and cache statistics.
    Stats,
    /// Predict one network's latency on an enrolled device.
    Predict {
        /// Enrolled device name.
        device: String,
        /// The network to price.
        network: Network,
    },
    /// Predict for an unenrolled device from raw signature latencies.
    PredictForNewDevice {
        /// Measured signature-set latencies (ms).
        signature_ms: Vec<f64>,
        /// The network to price.
        network: Network,
    },
    /// Enroll a new device.
    OnboardDevice {
        /// Device name (must not be enrolled yet).
        device: String,
        /// Measured signature-set latencies (ms).
        signature_ms: Vec<f64>,
    },
    /// Update an enrolled device's signature (rewrites its rows).
    ReEnroll {
        /// Enrolled device name.
        device: String,
        /// Fresh signature-set latencies (ms).
        signature_ms: Vec<f64>,
    },
    /// Contribute one measured latency.
    Contribute {
        /// Enrolled device name.
        device: String,
        /// The measured network.
        network: Network,
        /// Measured latency (ms); must be finite and positive.
        latency_ms: f64,
    },
    /// Refit the shared model on everything contributed so far.
    Fit,
    /// Drain outstanding work and stop the server.
    Shutdown,
}

/// A server response, one per request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A mutation succeeded.
    Ok,
    /// Answer to [`Request::Predict`] / [`Request::PredictForNewDevice`].
    Prediction {
        /// Predicted latency (ms).
        latency_ms: f64,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Enrolled devices.
        devices: usize,
        /// Contributed training rows.
        rows: usize,
        /// Whether a fitted model is serving.
        fitted: bool,
        /// Encoding-cache hits since startup.
        encoding_hits: u64,
        /// Encoding-cache misses since startup.
        encoding_misses: u64,
        /// Prediction-cache hits since startup.
        prediction_hits: u64,
        /// Prediction-cache misses since startup.
        prediction_misses: u64,
        /// Requests handled since startup (this one included).
        requests: u64,
    },
    /// Acknowledgement of [`Request::Shutdown`]; the server drains and
    /// exits after sending this.
    ShuttingDown,
    /// The request failed; the connection stays usable.
    Error {
        /// Stable machine-readable failure code (see [`codes`]).
        code: String,
        /// Human-readable failure description.
        message: String,
    },
}

/// Stable machine-readable error codes carried by [`Response::Error`].
///
/// These strings are part of the wire contract: clients branch on them,
/// so they never change once shipped (messages may).
pub mod codes {
    /// The frame payload was not parsable as a request.
    pub const PARSE_ERROR: &str = "parse_error";
    /// The named device is not enrolled.
    pub const UNKNOWN_DEVICE: &str = "unknown_device";
    /// The device name is already enrolled.
    pub const ALREADY_ENROLLED: &str = "already_enrolled";
    /// A signature vector had the wrong length.
    pub const SIGNATURE_LENGTH: &str = "signature_length";
    /// A contributed latency was non-finite or non-positive.
    pub const INVALID_LATENCY: &str = "invalid_latency";
    /// Too few training rows to fit.
    pub const NOT_ENOUGH_DATA: &str = "not_enough_data";
    /// Prediction requested before any model was fitted.
    pub const NOT_FITTED: &str = "not_fitted";
    /// Persisted repository parts failed validation.
    pub const CORRUPT_PARTS: &str = "corrupt_parts";
    /// Some other repository-level rejection.
    pub const REPOSITORY: &str = "repository";
    /// Filesystem or socket I/O failed server-side.
    pub const IO: &str = "io";
    /// Server-side (de)serialization failed.
    pub const JSON: &str = "json";
    /// A snapshot envelope was unreadable.
    pub const BAD_SNAPSHOT: &str = "bad_snapshot";
    /// A snapshot was rejected by the audit passes.
    pub const AUDIT_REJECTED: &str = "audit_rejected";
    /// An error variant this build does not classify further.
    pub const INTERNAL: &str = "internal";
    /// A binary frame declared a payload above the protocol cap; the
    /// error is sent before any allocation and the connection closes,
    /// since framing can no longer be trusted.
    pub const FRAME_TOO_LARGE: &str = "frame_too_large";
    /// The binary preamble asked for a protocol version this build
    /// does not speak; answered as a v1-framed error, then close.
    pub const UNSUPPORTED_PROTOCOL: &str = "unsupported_protocol";
    /// Client-side binary wire (de)serialization failed.
    pub const WIRE: &str = "wire_error";

    /// Every stable error code, for exhaustiveness tests and the
    /// wirecheck fuzzer's code-stability invariant. Append-only, like
    /// the constants themselves.
    pub const ALL: [&str; 17] = [
        PARSE_ERROR,
        UNKNOWN_DEVICE,
        ALREADY_ENROLLED,
        SIGNATURE_LENGTH,
        INVALID_LATENCY,
        NOT_ENOUGH_DATA,
        NOT_FITTED,
        CORRUPT_PARTS,
        REPOSITORY,
        IO,
        JSON,
        BAD_SNAPSHOT,
        AUDIT_REJECTED,
        INTERNAL,
        FRAME_TOO_LARGE,
        UNSUPPORTED_PROTOCOL,
        WIRE,
    ];
}

/// Short stable label for a request, used as the slow-log label and in
/// per-verb metrics.
pub fn request_label(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Predict { .. } => "predict",
        Request::PredictForNewDevice { .. } => "predict_new_device",
        Request::OnboardDevice { .. } => "onboard_device",
        Request::ReEnroll { .. } => "re_enroll",
        Request::Contribute { .. } => "contribute",
        Request::Fit => "fit",
        Request::Shutdown => "shutdown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_labels_are_stable() {
        assert_eq!(request_label(&Request::Ping), "ping");
        assert_eq!(request_label(&Request::Fit), "fit");
    }
}
