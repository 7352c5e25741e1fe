//! Windowed cache counts are exact under concurrency: each request's
//! cache lookups are recorded from the request's own outcome, so two
//! connections serving pipelined clients at once never count each
//! other's lookups. One `#[test]` only — the windowed registry is
//! process-wide.

mod common;

use common::fitted_repository;
use gdcm_serve::protocol::{codes, wire};
use gdcm_serve::{
    serve, BinClient, IngestPipeline, OpsClient, RefreshConfig, Request, Response, ServeConfig,
    ServingRepository,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn count_at(value: &serde_json::Value, path: &str) -> u64 {
    path.split('.')
        .try_fold(value, |cur, key| cur.get(key))
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn windowed_cache_counts_are_exact_under_concurrent_connections() {
    const ROUNDS: usize = 16;
    let (repo, nets) = fitted_repository(51);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let devices = serving.device_names();
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

        // Two clients, each on its own connection thread, pipelining at
        // once. Every Predict makes exactly one prediction-cache lookup:
        // a fast-lane hit, or a decode followed by a hit or a miss.
        let clients: Vec<_> = devices[..2]
            .iter()
            .map(|device| {
                let requests: Vec<Request> = (0..ROUNDS)
                    .flat_map(|_| &nets)
                    .map(|net| Request::Predict {
                        device: device.clone(),
                        network: net.clone(),
                    })
                    .collect();
                let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10))
                    .expect("binary client connects");
                scope.spawn(move || client.pipeline(&requests, 8))
            })
            .collect();
        let answered: Vec<Response> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread").expect("pipeline"))
            .collect();
        let lookups = answered.len() as u64;

        // An oversized frame is refused, answered, and counted like any
        // other error.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire::preamble()).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&9u64.to_le_bytes());
        stream.write_all(&header).unwrap();
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).unwrap();

        // Telemetry lands just after each response is written: poll
        // until every request is in the window, then compare exactly.
        let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(10)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let metrics = loop {
            let m: serde_json::Value =
                serde_json::from_str(&ops.query("metrics").unwrap()).unwrap();
            if count_at(&m, "windowed.requests") > lookups || Instant::now() > deadline {
                break m;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        drop(ops);

        // Shut down before asserting, so a failure cannot leave the
        // server running under the scope's implicit join.
        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        let shutdown = client.request(&Request::Shutdown).unwrap();
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");

        assert!(matches!(shutdown, Response::ShuttingDown));
        assert_eq!(answered.len(), 2 * ROUNDS * nets.len());
        assert!(answered
            .iter()
            .all(|r| matches!(r, Response::Prediction { .. })));
        match wire::decode_value::<Response>(&answer[wire::FRAME_HEADER_LEN..]).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, codes::FRAME_TOO_LARGE),
            other => panic!("oversized frame answered {other:?}"),
        }
        assert_eq!(count_at(&metrics, "windowed.requests"), lookups + 1);
        assert_eq!(count_at(&metrics, "windowed.errors"), 1);
        assert_eq!(
            count_at(&metrics, "windowed.prediction_cache.hits")
                + count_at(&metrics, "windowed.prediction_cache.misses"),
            lookups,
            "windowed cache counts must equal the lookups sent: {metrics:?}"
        );
        assert_eq!(summary.requests, lookups + 2);
        assert_eq!(summary.request_errors, 1);
    });
}
