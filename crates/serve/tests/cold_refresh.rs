//! Every background refresh is a cold fit on every row, so it follows
//! the devices that contribute.
//!
//! A repository of 90 devices is fitted at 100 trees, then takes five
//! cycles of four new random networks through an in-memory
//! `IngestPipeline`. Each signature column has one value per device,
//! more than the 64-bin budget, so every new row moves its quantile
//! cuts: a refit that reused the served trees' thresholds would not
//! freeze on the new grid. Every cycle must swap in, clearing the
//! freeze and the audit + flatcheck gate, and serve exactly the bits a
//! cold `CollaborativeRepository::fit` on the same rows gives.

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_dnn::Network;
use gdcm_gen::{RandomNetworkGenerator, SearchSpace};
use gdcm_serve::{IngestPipeline, RefreshConfig, ServeConfig, ServingRepository};

const CYCLES: usize = 5;
const NETWORKS_PER_CYCLE: usize = 4;
const ROWS_PER_DEVICE: usize = 8;

/// Prediction bits of every (device, network) pair.
fn bits(repo: &CollaborativeRepository, nets: &[Network]) -> Vec<u64> {
    let mut out = Vec::new();
    for device in repo.device_names() {
        for net in nets {
            out.push(repo.predict(device, net).unwrap().to_bits());
        }
    }
    out
}

#[test]
fn every_refresh_is_a_cold_fit_that_swaps_in() {
    let data = CostDataset::tiny(35, 6, 90);
    let all: Vec<usize> = (0..data.n_devices()).collect();
    let signature = MutualInfoSelector::default().select(&data.db, &all, 3);
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        signature.len(),
        RepositoryConfig::default(),
    );
    assert_eq!(repo.config().gbdt.n_estimators, 100);
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    for d in 0..data.n_devices() {
        let lat: Vec<f64> = signature.iter().map(|&n| data.db.latency(d, n)).collect();
        let name = data.devices[d].model.clone();
        repo.onboard_device(name.clone(), &lat).unwrap();
        for &n in open
            .iter()
            .cycle()
            .skip(d % open.len())
            .take(ROWS_PER_DEVICE)
        {
            repo.contribute(&name, &data.suite[n].network, data.db.latency(d, n))
                .unwrap();
        }
    }
    repo.fit().unwrap();
    let devices: Vec<String> = repo.device_names().iter().map(|d| d.to_string()).collect();
    let probe_nets: Vec<Network> = open
        .iter()
        .map(|&n| data.suite[n].network.clone())
        .collect();

    let mut cold = repo.clone();
    let serving = ServingRepository::new(repo, ServeConfig::default());
    let pipeline = IngestPipeline::new(
        &serving,
        RefreshConfig {
            refresh_rows: NETWORKS_PER_CYCLE,
        },
    );
    let mut generator = RandomNetworkGenerator::new(SearchSpace::tiny(), 35);
    for cycle in 0..CYCLES {
        let epoch = serving.model_epoch();
        for i in 0..NETWORKS_PER_CYCLE {
            let net = generator.generate(format!("new-{cycle}-{i}")).unwrap();
            let device = &devices[(cycle * NETWORKS_PER_CYCLE + i) * 7 % devices.len()];
            // Latency grows with the network's work and the device's
            // slowness on its first signature network.
            let scale = f64::from(cold.device_signature(device).unwrap()[0]);
            let latency_ms = scale * (0.25 + net.cost().mmacs() / 50.0);
            pipeline.contribute(device, &net, latency_ms).unwrap();
            cold.contribute(device, &net, latency_ms).unwrap();
        }
        assert!(pipeline.refresh_due(), "cycle {cycle}");
        let accepted = pipeline.refresh_once();
        assert!(
            matches!(accepted, Ok(true)),
            "cycle {cycle} was not accepted: {accepted:?}"
        );
        assert!(serving.model_epoch() > epoch, "cycle {cycle}");
        assert_eq!(pipeline.pending_rows(), 0, "cycle {cycle}");

        cold.fit().unwrap();
        let served = serving.with_repository(|r| {
            assert!(r.model() == cold.model(), "cycle {cycle}: model");
            assert!(
                r.frozen_model() == cold.frozen_model(),
                "cycle {cycle}: frozen"
            );
            bits(r, &probe_nets)
        });
        assert_eq!(served, bits(&cold, &probe_nets), "cycle {cycle}");
    }
    assert_eq!(
        (pipeline.refreshes(), pipeline.refreshes_rejected()),
        (CYCLES as u64, 0)
    );
}
