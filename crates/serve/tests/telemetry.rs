//! End-to-end telemetry test: the ops endpoint (`health` / `metrics` /
//! `slowlog` / `quiesce`) under real load.

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_dnn::Network;
use gdcm_ml::GbdtParams;
use gdcm_serve::{
    serve, BinClient, IngestPipeline, OpsClient, RefreshConfig, Request, Response, ServeConfig,
    ServingRepository,
};
use std::net::TcpListener;
use std::time::Duration;

fn fitted_repository(seed: u64) -> (CollaborativeRepository, Vec<Network>) {
    let data = CostDataset::tiny(seed, 6, 6);
    let all: Vec<usize> = (0..data.n_devices()).collect();
    let signature = MutualInfoSelector::default().select(&data.db, &all, 3);
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        signature.len(),
        RepositoryConfig {
            gbdt: GbdtParams {
                n_estimators: 20,
                ..GbdtParams::default()
            },
            min_rows: 8,
        },
    );
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    for d in 0..data.n_devices() {
        let lat: Vec<f64> = signature.iter().map(|&n| data.db.latency(d, n)).collect();
        let name = data.devices[d].model.clone();
        repo.onboard_device(name.clone(), &lat).unwrap();
        for &n in open.iter().cycle().skip(d % open.len()).take(8) {
            repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                .unwrap();
        }
    }
    repo.fit().unwrap();
    let nets = open
        .iter()
        .map(|&n| data.suite[n].network.clone())
        .collect();
    (repo, nets)
}

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
