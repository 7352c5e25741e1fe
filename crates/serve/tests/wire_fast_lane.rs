//! The wire-byte → structural-hash fast lane across a snapshot
//! reload: a freshly loaded `ServingRepository` starts with a cold
//! index, warms it through live binary-protocol traffic, and stays
//! coherent with the prediction cache through the `Fit` and `ReEnroll`
//! invalidations — the lane may only ever serve what the slow path
//! would, asserted bit-for-bit over a real socket.

mod common;

use common::fitted_repository;
use gdcm_dnn::Network;
use gdcm_serve::protocol::wire;
use gdcm_serve::{
    serve, BinClient, IngestPipeline, RefreshConfig, Request, Response, ServeConfig,
    ServingRepository,
};
use std::net::TcpListener;
use std::time::Duration;

fn predict_bits(serving: &ServingRepository, device: &str, network: &Network) -> u64 {
    serving
        .with_repository(|r| r.predict(device, network))
        .unwrap()
        .to_bits()
}

fn wire_prediction_bits(client: &mut BinClient, req: &Request) -> u64 {
    match client.request(req).unwrap() {
        Response::Prediction { latency_ms } => latency_ms.to_bits(),
        other => panic!("predict answered {other:?}"),
    }
}

fn prediction_hits(client: &mut BinClient) -> u64 {
    match client.request(&Request::Stats).unwrap() {
        Response::Stats {
            prediction_hits, ..
        } => prediction_hits,
        other => panic!("stats answered {other:?}"),
    }
}

#[test]
fn fast_lane_stays_coherent_across_snapshot_load() {
    let (repo, nets) = fitted_repository(52);
    let original = ServingRepository::new(repo, ServeConfig::default());
    let device = original.device_names()[0].clone();
    let before_bits = predict_bits(&original, &device, &nets[0]);

    // Round-trip the whole repository through a snapshot on disk.
    let dir = std::env::temp_dir().join(format!("gdcm-fast-lane-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.json");
    original.save_snapshot(&path).unwrap();
    let serving = ServingRepository::from_snapshot_path(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // The server keys the lane by a hash of the network's canonical
    // wire bytes — recompute it exactly the way the server does.
    let req = Request::Predict {
        device: device.clone(),
        network: nets[0].clone(),
    };
    let payload = wire::encode_value(&req).unwrap();
    let (probed_device, network_bytes) =
        wire::fast::probe_predict(&payload).expect("canonical Predict payload probes");
    assert_eq!(probed_device, device);
    let whash = wire::fast::wire_hash(network_bytes);

    // Cold start: the loaded repository has never seen these bytes.
    assert_eq!(serving.predict_wire_hit(&device, whash), None);

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

        // First sighting takes the slow path, answers bit-identically
        // to the pre-snapshot repository, and warms the index.
        assert_eq!(wire_prediction_bits(&mut client, &req), before_bits);
        assert_eq!(
            serving.predict_wire_hit(&device, whash).map(f64::to_bits),
            Some(before_bits),
            "slow-path decode did not warm the wire index"
        );

        // Repeats are fast-lane hits: bit-identical answers, and each
        // one books a prediction-cache hit in the live stats.
        let hits_before = prediction_hits(&mut client);
        for _ in 0..3 {
            assert_eq!(wire_prediction_bits(&mut client, &req), before_bits);
        }
        assert_eq!(prediction_hits(&mut client), hits_before + 3);

        // A refit clears the prediction cache. The byte→structure
        // index survives (it is a pure function of the bytes), but the
        // lane must stop answering until the slow path refills the
        // cache — and then only ever with the post-fit value.
        assert!(matches!(
            client
                .request(&Request::Contribute {
                    device: device.clone(),
                    network: nets[1].clone(),
                    latency_ms: 42.5,
                })
                .unwrap(),
            Response::Ok
        ));
        assert!(matches!(
            client.request(&Request::Fit).unwrap(),
            Response::Ok
        ));
        assert_eq!(
            serving.predict_wire_hit(&device, whash),
            None,
            "fast lane answered from a cleared prediction cache"
        );
        let after_fit_bits = predict_bits(serving, &device, &nets[0]);
        assert_eq!(wire_prediction_bits(&mut client, &req), after_fit_bits);
        assert_eq!(
            serving.predict_wire_hit(&device, whash).map(f64::to_bits),
            Some(after_fit_bits)
        );

        // A re-enroll clears it again; byte-identical Predict frames
        // must track the new signature, not the indexed past.
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
        assert_eq!(serving.predict_wire_hit(&device, whash), None);
        let after_enroll_bits = predict_bits(serving, &device, &nets[0]);
        assert_eq!(wire_prediction_bits(&mut client, &req), after_enroll_bits);
        assert_eq!(
            serving.predict_wire_hit(&device, whash).map(f64::to_bits),
            Some(after_enroll_bits)
        );

        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        server.join().expect("server thread").expect("serve result");
    });
}
