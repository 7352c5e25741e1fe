//! The fitted repository the serve integration tests start from, and
//! the seeded stream their randomized histories draw from.

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

/// SplitMix64: a seeded stream for randomized histories.
#[allow(dead_code)]
pub struct Rng(pub u64);

#[allow(dead_code)]
impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A factor in [0.8, 1.2).
    pub fn jitter(&mut self) -> f64 {
        0.8 + 0.4 * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}
