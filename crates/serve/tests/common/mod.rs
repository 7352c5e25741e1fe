//! The fitted repository the serve integration tests start from.

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_dnn::Network;
use gdcm_ml::GbdtParams;

/// A small fitted repository plus the open networks it never trained on.
pub fn fitted_repository(seed: u64) -> (CollaborativeRepository, Vec<Network>) {
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
