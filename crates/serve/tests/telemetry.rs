//! End-to-end telemetry tests: the ops endpoint (`health` / `metrics` /
//! `slowlog` / `quiesce`) under real load, and ops connections that
//! idle or split a verb across reads.

mod common;

use common::fitted_repository;
use gdcm_serve::{
    serve, BinClient, IngestPipeline, OpsClient, RefreshConfig, Request, Response, ServeConfig,
    ServerSummary, ServingRepository,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Sends `Shutdown` to the server on drop unless disarmed. An assertion
/// failure inside `thread::scope` unwinds through the scope's implicit
/// join; without this the panic would hang forever on a server that
/// never received its shutdown request, masking the real failure.
struct ShutdownGuard {
    addr: std::net::SocketAddr,
    armed: bool,
}

impl ShutdownGuard {
    fn new(addr: std::net::SocketAddr) -> Self {
        Self { addr, armed: true }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut client) = BinClient::connect(self.addr) {
                let _ = client.request(&Request::Shutdown);
            }
        }
    }
}

/// Full ops-endpoint pass under real load: health, windowed metrics
/// with cache hit ratios and stage histograms, slow-log entries with
/// stage breakdowns, and quiesce flipping health to draining.
#[test]
fn ops_endpoint_reports_live_telemetry() {
    let (repo, nets) = fitted_repository(43);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let ops_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ops_addr = ops_listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                Some(ops_listener),
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });
        let mut guard = ShutdownGuard::new(addr);

        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        // Load: a miss, a hit, and one error.
        for _ in 0..2 {
            let resp = client
                .request(&Request::Predict {
                    device: device.clone(),
                    network: nets[0].clone(),
                })
                .unwrap();
            assert!(matches!(resp, Response::Prediction { .. }));
        }
        let resp = client
            .request(&Request::Predict {
                device: "no-such-device".to_string(),
                network: nets[0].clone(),
            })
            .unwrap();
        assert!(matches!(resp, Response::Error { .. }));

        let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(10)).unwrap();

        let health: serde_json::Value =
            serde_json::from_str(&ops.query("health").unwrap()).unwrap();
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(health.get("fitted").and_then(|f| f.as_bool()), Some(true));
        assert_eq!(
            health.get("open_connections").and_then(|o| o.as_u64()),
            Some(1),
            "the one client is open; the ops connection is not counted"
        );
        assert!(
            health
                .get("requests_total")
                .and_then(|r| r.as_u64())
                .unwrap()
                >= 3
        );

        // A request's windowed telemetry is recorded just *after* its
        // response is written, so the client can observe its own reply
        // before the matching records land. Poll until the whole load
        // is visible; each record trails its response by microseconds.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let metrics: serde_json::Value = loop {
            let m: serde_json::Value =
                serde_json::from_str(&ops.query("metrics").unwrap()).unwrap();
            let w = m.get("windowed").expect("windowed block");
            let at =
                |v: &serde_json::Value, key: &str| v.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
            let converged = at(w, "requests") >= 3
                && at(w, "errors") >= 1
                && w.get("latency").map(|l| at(l, "count")).unwrap_or(0) >= 2
                && w.get("prediction_cache")
                    .map(|c| at(c, "hits"))
                    .unwrap_or(0)
                    >= 1;
            if converged || std::time::Instant::now() >= deadline {
                break m;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let windowed = metrics.get("windowed").expect("windowed block");
        assert!(windowed.get("requests").and_then(|r| r.as_u64()).unwrap() >= 3);
        assert!(windowed.get("qps").and_then(|q| q.as_f64()).unwrap() > 0.0);
        assert!(windowed.get("errors").and_then(|e| e.as_u64()).unwrap() >= 1);
        assert!(windowed.get("error_rate").and_then(|e| e.as_f64()).unwrap() > 0.0);
        let latency = windowed.get("latency").expect("latency block");
        assert!(latency.get("count").and_then(|c| c.as_u64()).unwrap() >= 2);
        assert!(latency.get("p50_ms").and_then(|p| p.as_f64()).unwrap() > 0.0);
        assert!(latency.get("p99_ms").and_then(|p| p.as_f64()).unwrap() > 0.0);
        let pred_cache = windowed.get("prediction_cache").expect("cache block");
        assert!(pred_cache.get("hits").and_then(|h| h.as_u64()).unwrap() >= 1);
        assert!(
            pred_cache
                .get("hit_ratio")
                .and_then(|h| h.as_f64())
                .unwrap()
                > 0.0,
            "the repeated predict must land as a windowed cache hit"
        );
        let cumulative = metrics.get("cumulative").expect("cumulative block");
        assert!(cumulative.get("requests").and_then(|r| r.as_u64()).unwrap() >= 3);
        let stages = cumulative
            .get("stages_us")
            .and_then(|s| s.as_array())
            .expect("stage histograms");
        assert!(
            !stages.is_empty(),
            "request traces must merge into serve/stage/* histograms"
        );

        let slowlog: serde_json::Value =
            serde_json::from_str(&ops.query("slowlog").unwrap()).unwrap();
        let entries = slowlog
            .get("entries")
            .and_then(|e| e.as_array())
            .expect("slowlog entries");
        assert!(!entries.is_empty(), "probe load must populate the slowlog");
        let stage_names: Vec<Vec<&str>> = entries
            .iter()
            .map(|entry| {
                entry
                    .get("stages")
                    .and_then(|s| s.as_array())
                    .expect("stage breakdown")
                    .iter()
                    .filter_map(|s| s.get("stage").and_then(|n| n.as_str()))
                    .collect()
            })
            .collect();
        // A wire fast-lane hit answers without a parse stage; the miss
        // and the error both parse.
        assert!(
            stage_names.iter().all(|names| names.contains(&"write"))
                && stage_names.iter().any(|names| names.contains(&"parse")),
            "slowlog entries must carry the request's stage spans, got {stage_names:?}"
        );

        let quiesce: serde_json::Value =
            serde_json::from_str(&ops.query("quiesce").unwrap()).unwrap();
        assert_eq!(
            quiesce.get("status").and_then(|s| s.as_str()),
            Some("draining")
        );
        let health: serde_json::Value =
            serde_json::from_str(&ops.query("health").unwrap()).unwrap();
        assert_eq!(
            health.get("status").and_then(|s| s.as_str()),
            Some("draining")
        );
        drop(ops);

        // The serving path keeps answering while draining.
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        guard.disarm();
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        assert!(summary.requests >= 5);
    });
}

/// Yields `serve`'s result once it returns.
type Served = Receiver<std::io::Result<ServerSummary>>;

/// Starts a server with an ops listener on a detached thread and
/// returns its two addresses. The repository is leaked so the thread
/// may outlive a missed deadline.
fn spawn_ops_server(seed: u64) -> (SocketAddr, SocketAddr, Served) {
    let (repo, _) = fitted_repository(seed);
    let serving: &'static ServingRepository = Box::leak(Box::new(ServingRepository::new(
        repo,
        ServeConfig::default(),
    )));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ops_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let ops_addr = ops_listener.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pipeline = IngestPipeline::new(serving, RefreshConfig::default());
        let _ = done_tx.send(serve(listener, Some(ops_listener), pipeline));
    });
    (addr, ops_addr, done_rx)
}

/// Sends `Shutdown` over a fresh connection and returns the answer.
fn shut_down(addr: SocketAddr) -> Response {
    let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
    client.request(&Request::Shutdown).unwrap()
}

/// An operator's session asks once, then stays connected without
/// sending. `Shutdown` must still end `serve`.
#[test]
fn shutdown_does_not_wait_for_an_idle_ops_client() {
    let (addr, ops_addr, done) = spawn_ops_server(44);
    let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(10)).unwrap();
    ops.query("health").unwrap();

    let answer = shut_down(addr);
    let sent = Instant::now();
    let served = done.recv_timeout(Duration::from_secs(10));
    let waited = sent.elapsed();
    // Only now does the ops client leave, so a failing run still ends.
    drop(ops);

    assert!(matches!(answer, Response::ShuttingDown));
    let summary = served
        .unwrap_or_else(|_| panic!("serve had not returned {waited:?} after Shutdown"))
        .expect("serve result");
    assert_eq!(summary.requests, 1);
}

/// A verb whose halves arrive further apart than the ops read timeout
/// is still one verb.
#[test]
fn an_ops_verb_split_across_reads_is_answered() {
    let (addr, ops_addr, done) = spawn_ops_server(45);
    let mut ops = TcpStream::connect(ops_addr).unwrap();
    ops.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    ops.write_all(b"hea").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    ops.write_all(b"lth\n").unwrap();
    let mut reply = String::new();
    let read = BufReader::new(&ops).read_line(&mut reply);
    drop(ops);

    assert!(matches!(shut_down(addr), Response::ShuttingDown));
    done.recv_timeout(Duration::from_secs(10))
        .expect("serve returns after Shutdown")
        .expect("serve result");
    read.expect("the ops endpoint answers");
    let health: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));
}
