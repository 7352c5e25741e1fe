//! Pipelined responses must be byte-identical to sequential ones, at
//! any `GDCM_THREADS` setting.
//!
//! `gdcm_par::set_threads` retunes the process-global pool, so this file
//! holds exactly one `#[test]` — a second test running concurrently in
//! the same binary would race the thread budget.
//!
//! The comparison is on the *raw response frames* (header + payload
//! bytes), not decoded values: the wire encoding itself must be
//! deterministic for bit-identity to mean anything over the network.

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_dnn::Network;
use gdcm_ml::GbdtParams;
use gdcm_serve::protocol::wire;
use gdcm_serve::{
    serve, BinClient, IngestPipeline, RefreshConfig, Request, Response, ServeConfig,
    ServingRepository,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
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

/// Reads one complete raw response frame off a blocking stream.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; wire::FRAME_HEADER_LEN];
    stream.read_exact(&mut frame).unwrap();
    let header = wire::decode_frame_header(&frame).unwrap();
    let mut payload = vec![0u8; header.payload_len];
    stream.read_exact(&mut payload).unwrap();
    frame.extend_from_slice(&payload);
    frame
}

/// Encodes the request stream as frames with ids `1..=n`.
fn encode_frames(requests: &[Request]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let mut frame = Vec::new();
            wire::append_frame(&mut frame, i as u64 + 1, req).unwrap();
            frame
        })
        .collect()
}

/// Sends every frame one at a time, reading each answer before the
/// next request goes out.
fn sequential_frames(addr: std::net::SocketAddr, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&wire::preamble()).unwrap();
    frames
        .iter()
        .map(|frame| {
            stream.write_all(frame).unwrap();
            stream.flush().unwrap();
            read_raw_frame(&mut stream)
        })
        .collect()
}

/// Blasts every frame in one burst, then reads all the answers.
fn pipelined_frames(addr: std::net::SocketAddr, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut burst = wire::preamble().to_vec();
    for frame in frames {
        burst.extend_from_slice(frame);
    }
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();
    frames.iter().map(|_| read_raw_frame(&mut stream)).collect()
}

#[test]
fn pipelined_responses_are_byte_identical_to_sequential_across_thread_counts() {
    let original = gdcm_par::threads();
    let mut per_threads: Vec<Vec<Vec<u8>>> = Vec::new();
    for threads in [1usize, 4] {
        gdcm_par::set_threads(threads);
        let (repo, nets) = fitted_repository(51);
        let serving = ServingRepository::new(repo, ServeConfig::default());
        let device = serving.device_names()[0].clone();

        // N requests mixing verbs that answer deterministically.
        let mut requests: Vec<Request> = nets
            .iter()
            .map(|net| Request::Predict {
                device: device.clone(),
                network: net.clone(),
            })
            .collect();
        requests.push(Request::PredictBatch {
            device: device.clone(),
            networks: nets.clone(),
        });
        requests.push(Request::Ping);
        let frames = encode_frames(&requests);

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

            let sequential = sequential_frames(addr, &frames);
            let pipelined = pipelined_frames(addr, &frames);
            assert_eq!(
                sequential, pipelined,
                "pipelined response bytes diverged from sequential at GDCM_THREADS={threads}"
            );
            per_threads.push(sequential);

            let mut client = BinClient::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
            assert!(matches!(
                client.request(&Request::Shutdown).unwrap(),
                Response::ShuttingDown
            ));
            drop(client);
            server.join().expect("server thread").expect("serve result");
        });
    }
    gdcm_par::set_threads(original);
    assert_eq!(
        per_threads[0], per_threads[1],
        "response bytes diverged between GDCM_THREADS=1 and GDCM_THREADS=4"
    );
}
