//! End-to-end tests of the length-prefixed binary protocol: real
//! sockets, pipelining, graceful shutdown, hardening against hostile
//! framing and non-binary openings, with responses checked bit-for-bit
//! against the uncached repository.

mod common;

use common::fitted_repository;
use gdcm_dnn::Network;
use gdcm_serve::protocol::{codes, wire};
use gdcm_serve::{
    serve, BinClient, IngestPipeline, RefreshConfig, Request, Response, ServeConfig,
    ServingRepository,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Reads one raw response frame (header + payload bytes) off a stream.
fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<(u64, Vec<u8>)> {
    let mut header = [0u8; wire::FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let header = wire::decode_frame_header(&header).expect("12 bytes decode");
    let mut payload = vec![0u8; header.payload_len];
    stream.read_exact(&mut payload)?;
    Ok((header.request_id, payload))
}

fn run_binary_session(seed: u64) {
    let (repo, nets) = fitted_repository(seed);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected: Vec<f64> = nets
        .iter()
        .map(|n| serving.with_repository(|r| r.predict(&device, n)).unwrap())
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                None,
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });

        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));

        // Sequential predictions: bit-identical to the local path, ids
        // echoed per frame.
        for (net, want) in nets.iter().zip(&expected) {
            let id = client
                .send(&Request::Predict {
                    device: device.clone(),
                    network: net.clone(),
                })
                .unwrap();
            let (echoed, resp) = client.recv().unwrap();
            assert_eq!(echoed, id, "response must carry its request's id");
            match resp {
                Response::Prediction { latency_ms } => {
                    assert_eq!(latency_ms.to_bits(), want.to_bits());
                }
                other => panic!("predict answered {other:?}"),
            }
        }

        // Pipelined predictions: same bits, answers in request order.
        let requests: Vec<Request> = nets
            .iter()
            .map(|net| Request::Predict {
                device: device.clone(),
                network: net.clone(),
            })
            .collect();
        let assert_pipelined = |client: &mut BinClient| {
            let responses = client.pipeline(&requests, 4).unwrap();
            assert_eq!(responses.len(), nets.len());
            for (resp, want) in responses.iter().zip(&expected) {
                match resp {
                    Response::Prediction { latency_ms } => {
                        assert_eq!(latency_ms.to_bits(), want.to_bits());
                    }
                    other => panic!("pipelined predict answered {other:?}"),
                }
            }
        };
        assert_pipelined(&mut client);

        // Errors answer in-band with stable codes; connection survives.
        match client
            .request(&Request::Predict {
                device: "no-such-device".to_string(),
                network: nets[0].clone(),
            })
            .unwrap()
        {
            Response::Error { code, message } => {
                assert_eq!(code, codes::UNKNOWN_DEVICE);
                assert!(message.contains("no-such-device"));
            }
            other => panic!("unknown device answered {other:?}"),
        }

        // End the first connection before opening the second: the
        // server must keep accepting after a client hangs up.
        drop(client);

        // The same predictions pipelined from a second connection —
        // still the same bits, and answered from the cache the first
        // connection warmed.
        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert_pipelined(&mut client);
        match client.request(&Request::Stats).unwrap() {
            Response::Stats {
                fitted,
                devices,
                prediction_hits,
                ..
            } => {
                assert!(fitted);
                assert!(devices > 0);
                assert!(prediction_hits > 0, "predictions should hit the warm cache");
            }
            other => panic!("stats answered {other:?}"),
        }

        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        // Each request counted once: ping, the sequential and both
        // pipelined rounds of predictions, the error, stats and shutdown.
        assert_eq!(summary.connections, 2);
        assert_eq!(summary.requests, 3 * nets.len() as u64 + 4);
        assert_eq!(summary.request_errors, 1);
    });
}

#[test]
fn binary_session_end_to_end_seed_41() {
    run_binary_session(41);
}

#[test]
fn binary_session_end_to_end_seed_42() {
    run_binary_session(42);
}

#[test]
fn shutdown_wakes_a_wildcard_accept_and_counts_only_clients() {
    let (repo, _) = fitted_repository(48);
    // Leaked so the server thread may outlive a missed deadline: a
    // `serve` that never returns must fail this test, not hang it.
    let serving: &'static ServingRepository = Box::leak(Box::new(ServingRepository::new(
        repo,
        ServeConfig::default(),
    )));
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let addr = SocketAddr::from(([127, 0, 0, 1], listener.local_addr().unwrap().port()));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pipeline = IngestPipeline::new(serving, RefreshConfig::default());
        let _ = done_tx.send(serve(listener, None, pipeline));
    });

    // Two clients, one after the other; the second shuts the server
    // down. Their answers are judged once `serve` has returned.
    let ask = |request: &Request| {
        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        client.request(request).unwrap()
    };
    let answers = [ask(&Request::Ping), ask(&Request::Shutdown)];

    let summary = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("serve must return within 10 s of Shutdown")
        .expect("serve result");
    assert!(matches!(answers, [Response::Pong, Response::ShuttingDown]));
    assert_eq!(
        summary.connections, 2,
        "the wake-up connection is no client"
    );
    assert_eq!(summary.requests, 2);
}

/// Reads until the server closes `stream`, returning what it wrote, or
/// the error (a 10 s timeout included) that ended the read first.
fn read_until_closed(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        // Closing with unread input may surface as a reset.
        Err(e) if e.kind() != ErrorKind::ConnectionReset => Err(e),
        _ => Ok(rest),
    }
}

#[test]
fn non_binary_openings_are_closed_without_an_answer() {
    let (repo, nets) = fitted_repository(43);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                None,
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });

        let mut bin = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        let req = Request::Predict {
            device: device.clone(),
            network: nets[0].clone(),
        };
        let predict = |bin: &mut BinClient| match bin.request(&req).unwrap() {
            Response::Prediction { latency_ms } => {
                assert_eq!(latency_ms.to_bits(), expected.to_bits());
            }
            other => panic!("binary predict answered {other:?}"),
        };
        predict(&mut bin);

        // A newline-JSON request line, then NUL-led bad magic: neither
        // is a binary-v1 client, so each connection closes unanswered
        // while the binary client beside them keeps its answers. The
        // closes are judged after shutdown, so a failure cannot leave
        // the server running.
        let closes: Vec<_> = [&b"\"Ping\"\n"[..], b"\0NOTGDCM"]
            .into_iter()
            .map(|opening| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(opening).unwrap();
                let close = read_until_closed(&mut stream);
                predict(&mut bin);
                close
            })
            .collect();

        assert!(matches!(
            bin.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(bin);
        let summary = server.join().expect("server thread").expect("serve result");
        for close in closes {
            let written = close.expect("the server must close a non-binary opening");
            assert!(written.is_empty(), "server wrote {} byte(s)", written.len());
        }
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.request_errors, 0);
        assert_eq!(summary.connections, 3);
    });
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let (repo, _) = fitted_repository(44);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                None,
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&wire::preamble()).unwrap();
        // A header declaring u32::MAX payload bytes — far beyond the
        // cap, and far beyond what will ever be sent.
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&777u64.to_le_bytes());
        stream.write_all(&header).unwrap();
        stream.flush().unwrap();

        // The server answers a correctly framed error with the stable
        // code, echoing the offending id, *before* reading (or
        // allocating) the declared payload...
        let (id, payload) = read_raw_frame(&mut stream).unwrap();
        assert_eq!(id, 777);
        match wire::decode_value::<Response>(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, codes::FRAME_TOO_LARGE),
            other => panic!("oversized frame answered {other:?}"),
        }
        // ...then closes the connection: framing can't be trusted.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
        drop(stream);

        // The server itself is unharmed.
        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Ping).unwrap(),
            Response::Pong
        ));
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        assert_eq!(summary.request_errors, 1);
    });
}

#[test]
fn truncated_frame_mid_read_closes_cleanly() {
    let (repo, _) = fitted_repository(45);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                None,
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire::preamble()).unwrap();
        // Declare 100 payload bytes, deliver 10, hang up the write half.
        let mut partial = Vec::new();
        partial.extend_from_slice(&100u32.to_le_bytes());
        partial.extend_from_slice(&5u64.to_le_bytes());
        partial.extend_from_slice(&[0xAB; 10]);
        stream.write_all(&partial).unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();

        // Clean close: no response for the frame that never completed,
        // no wedged connection — just EOF.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
        drop(stream);

        // And a truncated *header* at EOF closes just as cleanly.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&wire::preamble()).unwrap();
        stream.write_all(&[0x01, 0x02, 0x03]).unwrap();
        stream.flush().unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
        drop(stream);

        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        // Neither truncated connection produced a request or an error.
        assert_eq!(summary.request_errors, 0);
        assert_eq!(summary.requests, 1);
    });
}

#[test]
fn repeated_predicts_stay_fresh_across_re_enroll() {
    // Repeating one Predict payload over the binary protocol engages
    // the server's wire fast lane (answers from cache without decoding
    // the network). A re-enroll must invalidate those answers too: the
    // lane may only ever serve what the slow path would.
    let (repo, nets) = fitted_repository(47);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                None,
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });

        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        let req = Request::Predict {
            device: device.clone(),
            network: nets[0].clone(),
        };
        let before = serving
            .with_repository(|r| r.predict(&device, &nets[0]))
            .unwrap();
        for _ in 0..3 {
            match client.request(&req).unwrap() {
                Response::Prediction { latency_ms } => {
                    assert_eq!(latency_ms.to_bits(), before.to_bits());
                }
                other => panic!("predict answered {other:?}"),
            }
        }

        // Shift the device's signature through the wire, then repeat
        // the byte-for-byte identical Predict payload.
        let shifted: Vec<f64> = serving
            .with_repository(|r| r.device_signature(&device).unwrap().to_vec())
            .iter()
            .map(|v| f64::from(*v) * 2.0 + 1.0)
            .collect();
        assert!(matches!(
            client
                .request(&Request::ReEnroll {
                    device: device.clone(),
                    signature_ms: shifted,
                })
                .unwrap(),
            Response::Ok
        ));
        let after = serving
            .with_repository(|r| r.predict(&device, &nets[0]))
            .unwrap();
        match client.request(&req).unwrap() {
            Response::Prediction { latency_ms } => {
                assert_eq!(
                    latency_ms.to_bits(),
                    after.to_bits(),
                    "fast lane served a stale pre-re-enroll prediction"
                );
            }
            other => panic!("predict answered {other:?}"),
        }

        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        server.join().expect("server thread").expect("serve result");
    });
}

#[test]
fn garbage_payload_does_not_corrupt_neighbouring_pipelined_responses() {
    let (repo, nets) = fitted_repository(46);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                None,
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&wire::preamble()).unwrap();

        // Three frames in one burst: valid, garbage payload, valid.
        let predict = Request::Predict {
            device: device.clone(),
            network: nets[0].clone(),
        };
        let mut burst = Vec::new();
        wire::append_frame(&mut burst, 1, &predict).unwrap();
        wire::append_raw_frame(&mut burst, 2, &[0xFF, 0xFE, 0xFD, 0xFC]).unwrap();
        wire::append_frame(&mut burst, 3, &predict).unwrap();
        stream.write_all(&burst).unwrap();
        stream.flush().unwrap();

        // All three answered, in order, each tagged with its own id;
        // the in-band parse error for frame 2 leaves frames 1 and 3
        // bit-identical to the clean path.
        for want_id in [1u64, 2, 3] {
            let (id, payload) = read_raw_frame(&mut stream).unwrap();
            assert_eq!(id, want_id);
            match (want_id, wire::decode_value::<Response>(&payload).unwrap()) {
                (1 | 3, Response::Prediction { latency_ms }) => {
                    assert_eq!(latency_ms.to_bits(), expected.to_bits());
                }
                (2, Response::Error { code, message }) => {
                    assert_eq!(code, codes::PARSE_ERROR);
                    assert!(message.contains("unparsable"), "{message}");
                }
                (i, other) => panic!("frame {i} answered {other:?}"),
            }
        }
        drop(stream);

        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");
        assert_eq!(summary.request_errors, 1);
    });
}

#[test]
fn a_retired_batch_payload_is_a_parse_error_and_the_connection_keeps_serving() {
    /// The retired batch request's payload shape. No `Request` has its
    /// name now, so it is answered like any other unparsable payload.
    #[derive(serde::Serialize)]
    enum Retired {
        PredictBatch {
            device: String,
            networks: Vec<Network>,
        },
    }
    let (repo, nets) = fitted_repository(49);
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let device = serving.device_names()[0].clone();
    let expected = serving
        .with_repository(|r| r.predict(&device, &nets[0]))
        .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let serving = &serving;
        let server = scope.spawn(move || {
            serve(
                listener,
                None,
                IngestPipeline::new(serving, RefreshConfig::default()),
            )
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let retired = Retired::PredictBatch {
            device: device.clone(),
            networks: nets.clone(),
        };
        let predict = Request::Predict {
            device: device.clone(),
            network: nets[0].clone(),
        };
        let mut frame = wire::preamble().to_vec();
        wire::append_frame(&mut frame, 11, &retired).unwrap();
        stream.write_all(&frame).unwrap();
        let refused = read_raw_frame(&mut stream);
        frame.clear();
        wire::append_frame(&mut frame, 12, &predict).unwrap();
        stream.write_all(&frame).unwrap();
        let answered = read_raw_frame(&mut stream);
        drop(stream);

        // Judged after shutdown, so a failure cannot leave it running.
        let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        let summary = server.join().expect("server thread").expect("serve result");

        let (id, payload) = refused.unwrap();
        assert_eq!(id, 11, "the error must carry the retired frame's id");
        match wire::decode_value::<Response>(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, codes::PARSE_ERROR),
            other => panic!("retired batch payload answered {other:?}"),
        }
        let (id, payload) = answered.unwrap();
        assert_eq!(id, 12);
        match wire::decode_value::<Response>(&payload).unwrap() {
            Response::Prediction { latency_ms } => {
                assert_eq!(latency_ms.to_bits(), expected.to_bits());
            }
            other => panic!("predict after the parse error answered {other:?}"),
        }
        assert_eq!(summary.request_errors, 1);
    });
}
