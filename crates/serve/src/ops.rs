//! The operations endpoint: a second listener, speaking newline JSON,
//! for humans and harnesses watching a live server. It carries verbs,
//! not [`crate::Request`]s, so it stays text: `nc` can drive it.
//!
//! Verbs are bare text lines, answers are one JSON object per line
//! (same `std::net` + safe-Rust discipline as the main server, and the
//! same wake-up-connection shutdown trick):
//!
//! * `health` — [`HealthReply`]: `ok`/`draining`, uptime, repository
//!   shape, lifetime request counters.
//! * `metrics` — [`MetricsReply`]: windowed qps / latency percentiles /
//!   error rate / cache hit ratios over the last `GDCM_OBS_WINDOW`
//!   seconds, plus the cumulative registry view (including per-stage
//!   latency histograms merged from request traces).
//! * `slowlog` — [`SlowlogReply`]: the K worst requests with their
//!   stage breakdowns, worst first.
//! * `quiesce` — flips `health` to `draining` ahead of a shutdown so
//!   load balancers can drain the instance; the serving path itself
//!   keeps answering.
//!
//! Ops traffic is rare and small, so connections are handled inline by
//! the single ops thread — no pool, no backpressure interaction with
//! the serving path.

use serde::Serialize;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;

use crate::server::ServerShared;

/// Reply to the `health` verb.
#[derive(Debug, Clone, Serialize)]
pub struct HealthReply {
    /// `"ok"`, or `"draining"` once `quiesce` has been received.
    pub status: String,
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Whether a fitted model is serving.
    pub fitted: bool,
    /// Whether the serving model is a compiled (frozen SoA) artifact —
    /// true for every fit this build performs and every snapshot it
    /// accepts, since loading translation-validates the frozen model.
    pub frozen: bool,
    /// Enrolled devices.
    pub devices: usize,
    /// Contributed training rows.
    pub rows: usize,
    /// Requests answered since startup.
    pub requests_total: u64,
    /// Error responses since startup.
    pub errors_total: u64,
    /// Connections accepted since startup.
    pub connections_total: u64,
    /// Serving connections open right now (the ops listener's own
    /// excluded).
    pub open_connections: u64,
    /// Wire protocols the serving listener speaks, by stable name
    /// (`binary-v1`).
    pub protocols: Vec<String>,
    /// Model epoch currently serving (bumped by every fit, re-enroll,
    /// and background refresh swap).
    pub epoch: u64,
    /// Background refreshes completed (0 while refresh is disabled).
    pub refreshes: u64,
    /// Contributions accumulated toward the next background refresh.
    pub refresh_pending_rows: u64,
    /// Write-ahead-log records awaiting compaction (0 without a WAL).
    pub wal_records: u64,
}

/// One cache's view over the metrics window.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CacheRates {
    /// Hits in the window.
    pub hits: u64,
    /// Misses in the window.
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 when idle.
    pub hit_ratio: f64,
}

impl CacheRates {
    fn new(hits: u64, misses: u64) -> Self {
        let total = hits + misses;
        Self {
            hits,
            misses,
            hit_ratio: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
        }
    }
}

/// Request latency percentiles over the window, in milliseconds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyWindow {
    /// Requests measured in the window.
    pub count: u64,
    /// Median (log-bin approximation).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Exact mean.
    pub mean_ms: f64,
    /// Exact in-window maximum.
    pub max_ms: f64,
}

/// The rolling-window half of a [`MetricsReply`].
#[derive(Debug, Clone, Serialize)]
pub struct WindowedMetrics {
    /// Window length in seconds (`GDCM_OBS_WINDOW`).
    pub window_s: u64,
    /// Requests answered in the window.
    pub requests: u64,
    /// Mean request rate over the window.
    pub qps: f64,
    /// Error responses in the window.
    pub errors: u64,
    /// `errors / requests`, 0 when idle.
    pub error_rate: f64,
    /// Request latency percentiles.
    pub latency: LatencyWindow,
    /// Prediction-cache traffic in the window.
    pub prediction_cache: CacheRates,
    /// Encoding-cache traffic in the window.
    pub encoding_cache: CacheRates,
}

/// The since-startup half of a [`MetricsReply`].
#[derive(Debug, Clone, Serialize)]
pub struct CumulativeMetrics {
    /// Requests answered since startup.
    pub requests: u64,
    /// Error responses since startup.
    pub errors: u64,
    /// Lifetime request latency summary (absent before any request).
    pub latency_ms: Option<gdcm_obs::metrics::HistogramSummary>,
    /// Per-stage latency summaries merged from request traces
    /// (`serve/stage/*`), sorted by name.
    pub stages_us: Vec<gdcm_obs::metrics::HistogramSummary>,
    /// Prediction-cache traffic since startup.
    pub prediction_cache: CacheRates,
    /// Encoding-cache traffic since startup.
    pub encoding_cache: CacheRates,
}

/// Reply to the `metrics` verb.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsReply {
    /// Rolling-window view.
    pub windowed: WindowedMetrics,
    /// Since-startup view.
    pub cumulative: CumulativeMetrics,
}

/// Reply to the `slowlog` verb.
#[derive(Debug, Clone, Serialize)]
pub struct SlowlogReply {
    /// Slow-log capacity (`GDCM_OBS_SLOWLOG`).
    pub capacity: usize,
    /// Worst requests first, each with its stage breakdown.
    pub entries: Vec<gdcm_obs::slowlog::SlowEntry>,
}

#[derive(Debug, Clone, Serialize)]
struct StatusReply {
    status: String,
}

#[derive(Debug, Clone, Serialize)]
struct ErrorReply {
    error: String,
}

/// Accept loop for the ops listener; exits when the main server stops.
pub(crate) fn run_ops(listener: TcpListener, shared: &ServerShared<'_>) {
    for stream in listener.incoming() {
        if shared.ops_stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => handle_ops_connection(shared, stream),
            Err(e) => gdcm_obs::event(
                "accept_error",
                "serve_ops",
                &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
            ),
        }
    }
}

/// Serves one ops connection: one verb line in, one JSON line out.
fn handle_ops_connection(shared: &ServerShared<'_>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        let verb = line.trim();
        if verb.is_empty() {
            continue;
        }
        let json = match verb.to_ascii_lowercase().as_str() {
            "health" => serde_json::to_string(&health_reply(shared)),
            "metrics" => serde_json::to_string(&metrics_reply(shared)),
            "slowlog" => serde_json::to_string(&SlowlogReply {
                capacity: gdcm_obs::slowlog::global().capacity(),
                entries: gdcm_obs::slowlog::snapshot(),
            }),
            "quiesce" => {
                shared.draining.store(true, Ordering::SeqCst);
                serde_json::to_string(&StatusReply {
                    status: "draining".to_string(),
                })
            }
            other => serde_json::to_string(&ErrorReply {
                error: format!("unknown ops verb: {other}"),
            }),
        };
        let json = match json {
            Ok(json) => json,
            Err(_) => break, // plain data; serialization cannot fail
        };
        if writer
            .write_all(json.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

fn health_reply(shared: &ServerShared<'_>) -> HealthReply {
    let (ingest, serving) = (&shared.ingest, shared.ingest.serving);
    HealthReply {
        status: if shared.draining.load(Ordering::SeqCst) {
            "draining".to_string()
        } else {
            "ok".to_string()
        },
        uptime_s: shared.started.elapsed().as_secs_f64(),
        fitted: serving.is_fitted(),
        frozen: serving.is_frozen(),
        devices: serving.n_devices(),
        rows: serving.n_rows(),
        requests_total: shared.requests.load(Ordering::SeqCst),
        errors_total: shared.request_errors.load(Ordering::SeqCst),
        connections_total: shared.connections.load(Ordering::SeqCst),
        open_connections: shared.open_connections.load(Ordering::SeqCst).max(0) as u64,
        protocols: vec![crate::protocol::PROTOCOL_BINARY_V1.to_string()],
        epoch: serving.model_epoch(),
        refreshes: ingest.refreshes(),
        refresh_pending_rows: ingest.pending_rows(),
        wal_records: ingest.wal_records(),
    }
}

fn metrics_reply(shared: &ServerShared<'_>) -> MetricsReply {
    let now_us = gdcm_obs::timestamp_us();
    let requests = gdcm_obs::windowed_counter("serve/requests").summary_at(now_us);
    let errors = gdcm_obs::windowed_counter("serve/request_errors").summary_at(now_us);
    let latency = gdcm_obs::windowed_histogram("serve/request_us").summary_at(now_us);
    let win_count = |name: &str| gdcm_obs::windowed_counter(name).summary_at(now_us).count;
    let latency = match latency {
        Some(l) => LatencyWindow {
            count: l.count,
            p50_ms: l.p50 / 1e3,
            p95_ms: l.p95 / 1e3,
            p99_ms: l.p99 / 1e3,
            mean_ms: l.mean / 1e3,
            max_ms: l.max / 1e3,
        },
        None => LatencyWindow {
            count: 0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            mean_ms: 0.0,
            max_ms: 0.0,
        },
    };
    let cache = shared.ingest.serving.cache_stats();
    MetricsReply {
        windowed: WindowedMetrics {
            window_s: requests.window_s,
            requests: requests.count,
            qps: requests.per_sec,
            errors: errors.count,
            error_rate: if requests.count == 0 {
                0.0
            } else {
                errors.count as f64 / requests.count as f64
            },
            latency,
            prediction_cache: CacheRates::new(
                win_count("serve/pred_cache_hit"),
                win_count("serve/pred_cache_miss"),
            ),
            encoding_cache: CacheRates::new(
                win_count("serve/enc_cache_hit"),
                win_count("serve/enc_cache_miss"),
            ),
        },
        cumulative: CumulativeMetrics {
            requests: shared.requests.load(Ordering::SeqCst),
            errors: shared.request_errors.load(Ordering::SeqCst),
            latency_ms: gdcm_obs::histogram("serve/request_ms").summary(),
            stages_us: gdcm_obs::metrics::histogram_snapshot()
                .into_iter()
                .filter(|s| s.name.starts_with("serve/stage/"))
                .collect(),
            prediction_cache: CacheRates::new(cache.prediction_hits, cache.prediction_misses),
            encoding_cache: CacheRates::new(cache.encoding_hits, cache.encoding_misses),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_rates_handle_idle_and_busy() {
        let idle = CacheRates::new(0, 0);
        assert_eq!(idle.hit_ratio, 0.0);
        let busy = CacheRates::new(3, 1);
        assert!((busy.hit_ratio - 0.75).abs() < 1e-12);
    }
}
