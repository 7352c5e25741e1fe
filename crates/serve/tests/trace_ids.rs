//! Frame ids are trace ids: every raw frame is answered on its own u64
//! id — including ids a float-typed decode path would corrupt — and the
//! ops slow log names each request by that id. Alone in its test binary
//! because the slow log is process-global.

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

/// Reads one raw response frame off a stream.
fn read_frame(stream: &mut TcpStream) -> (u64, Response) {
    let mut header = [0u8; wire::FRAME_HEADER_LEN];
    stream.read_exact(&mut header).unwrap();
    let header = wire::decode_frame_header(&header).unwrap();
    let mut payload = vec![0u8; header.payload_len];
    stream.read_exact(&mut payload).unwrap();
    (header.request_id, wire::decode_value(&payload).unwrap())
}

#[test]
fn frame_ids_are_echoed_and_name_slowlog_entries() {
    let (repo, nets) = fitted_repository(48);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
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

        // Every id class that could corrupt in a lossy decode path, each
        // carrying a prediction, an unknown device and a garbage payload.
        let ids = [1u64, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let predict = |device: &str| Request::Predict {
            device: device.to_string(),
            network: nets[0].clone(),
        };
        let payloads = [
            wire::encode_value(&predict(&device)).unwrap(),
            wire::encode_value(&predict("no-such-device")).unwrap(),
            vec![0xFF, 0xFE, 0xFD],
        ];
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut burst = wire::preamble().to_vec();
        for id in ids {
            for payload in &payloads {
                wire::append_raw_frame(&mut burst, id, payload).unwrap();
            }
        }
        stream.write_all(&burst).unwrap();
        let answers: Vec<(u64, Response)> = (0..ids.len() * payloads.len())
            .map(|_| read_frame(&mut stream))
            .collect();
        drop(stream);

        // Telemetry is recorded just after each response is written, so
        // poll until the slow log has taken all it can hold.
        let mut ops = OpsClient::connect_with_retry(ops_addr, Duration::from_secs(10)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let trace_ids: Vec<u64> = loop {
            let slowlog: serde_json::Value =
                serde_json::from_str(&ops.query("slowlog").unwrap()).unwrap();
            let capacity = slowlog.get("capacity").and_then(|c| c.as_u64()).unwrap();
            let got: Vec<u64> = slowlog
                .get("entries")
                .and_then(|e| e.as_array())
                .expect("slowlog entries")
                .iter()
                .map(|e| e.get("trace_id").and_then(|t| t.as_u64()).expect("u64 id"))
                .collect();
            let full = capacity.min((ids.len() * payloads.len()) as u64);
            if got.len() as u64 >= full || Instant::now() >= deadline {
                break got;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        drop(ops);

        // Judged after shutdown, so a failure cannot leave the server
        // running.
        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        assert_eq!(summary.requests, 13);
        assert_eq!(summary.request_errors, 8);

        let sent = ids
            .iter()
            .flat_map(|&id| (0..payloads.len()).map(move |kind| (id, kind)));
        for ((id, kind), (echoed, resp)) in sent.zip(answers) {
            assert_eq!(echoed, id, "a response must carry its frame's id");
            match (kind, resp) {
                (0, Response::Prediction { latency_ms }) => {
                    assert_eq!(latency_ms.to_bits(), expected.to_bits());
                }
                (1, Response::Error { code, .. }) => assert_eq!(code, codes::UNKNOWN_DEVICE),
                (2, Response::Error { code, .. }) => assert_eq!(code, codes::PARSE_ERROR),
                (_, other) => panic!("frame {id} answered {other:?}"),
            }
        }
        assert!(!trace_ids.is_empty(), "the load must populate the slow log");
        assert!(
            trace_ids.iter().all(|t| ids.contains(t)),
            "slow-log trace ids must be frame ids, got {trace_ids:?}"
        );
        assert!(
            trace_ids.iter().any(|&t| t > 1 << 53),
            "ids above 2^53 must survive into the slow log, got {trace_ids:?}"
        );
    });
}
