//! The deployment every workload runs against.
//!
//! The dataset, device fleet, signature set and trained models are the
//! paper's (dataset seed 42) on every run; `--seed` draws only the
//! traffic (see `workload`). Held-out accuracy on the paper dataset
//! ranges from 19% to 30% MAPE across dataset seeds, so a seeded
//! dataset would bury every accuracy and tree-shape change in
//! between-seed noise.

use std::path::Path;

use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_ml::GbdtParams;
use gdcm_sim::LatencyEngine;

use crate::workload::SplitMix;

/// Seed of the paper's dataset.
pub const PAPER_DATASET_SEED: u64 = 42;
/// Networks in the signature set.
pub const SIGNATURE_SIZE: usize = 10;
/// Rows each device contributes to the serving snapshot.
pub const ROWS_PER_DEVICE: usize = 30;
/// The training job holds out every fifth device.
pub const HOLDOUT_EVERY: usize = 5;

/// The measured world: suite, fleet and latency database.
pub struct World {
    pub data: CostDataset,
    pub engine: LatencyEngine,
}

impl World {
    pub fn paper() -> Self {
        Self {
            data: CostDataset::paper(PAPER_DATASET_SEED),
            engine: LatencyEngine::new(),
        }
    }

    pub fn n_devices(&self) -> usize {
        self.data.n_devices()
    }

    pub fn device_name(&self, d: usize) -> &str {
        &self.data.devices[d].model
    }

    /// Suite networks outside the signature set.
    pub fn open_networks(&self, signature: &[usize]) -> Vec<usize> {
        (0..self.data.n_networks())
            .filter(|n| !signature.contains(n))
            .collect()
    }

    fn signature_ms(&self, d: usize, signature: &[usize]) -> Vec<f64> {
        signature
            .iter()
            .map(|&n| self.data.db.latency(d, n))
            .collect()
    }

    fn empty_repository(&self, signature: &[usize]) -> CollaborativeRepository {
        CollaborativeRepository::new(
            self.data.encoder.clone(),
            signature.len(),
            RepositoryConfig {
                gbdt: GbdtParams::default(),
                ..RepositoryConfig::default()
            },
        )
    }
}

/// The serving snapshot: every device onboarded with
/// [`ROWS_PER_DEVICE`] contributed rows and the paper's GBDT fitted.
pub struct Deployment {
    /// Open suite networks, the ones devices contribute and users price.
    pub open: Vec<usize>,
    pub repo: CollaborativeRepository,
}

impl Deployment {
    pub fn build(world: &World) -> Self {
        let all: Vec<usize> = (0..world.n_devices()).collect();
        let signature = MutualInfoSelector::default().select(&world.data.db, &all, SIGNATURE_SIZE);
        let open = world.open_networks(&signature);
        let mut repo = world.empty_repository(&signature);
        for d in 0..world.n_devices() {
            repo.onboard_device(world.device_name(d), &world.signature_ms(d, &signature))
                .expect("dataset devices have unique names and finite signatures");
            for j in 0..ROWS_PER_DEVICE {
                let n = open[Self::trained_slot(d, j, open.len())];
                repo.contribute(
                    world.device_name(d),
                    &world.data.suite[n].network,
                    world.data.db.latency(d, n),
                )
                .expect("simulated latencies are finite and positive");
            }
        }
        repo.fit()
            .expect("the fixture has far more rows than min_rows");
        Self { open, repo }
    }

    /// Index into `open` of device `d`'s `j`-th contributed network.
    fn trained_slot(d: usize, j: usize, n_open: usize) -> usize {
        (d * ROWS_PER_DEVICE + j) % n_open
    }

    /// Every (device, suite network) pair the snapshot was not trained
    /// on: the grid on which the served model's accuracy is scored.
    pub fn eval_grid(&self, world: &World) -> Vec<(usize, usize)> {
        let n_open = self.open.len();
        let mut grid = Vec::new();
        for d in 0..world.n_devices() {
            let trained: Vec<usize> = (0..ROWS_PER_DEVICE)
                .map(|j| Self::trained_slot(d, j, n_open))
                .collect();
            grid.extend(
                (0..n_open)
                    .filter(|slot| !trained.contains(slot))
                    .map(|slot| (d, self.open[slot])),
            );
        }
        grid
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        gdcm_serve::save_repository(&self.repo, path).map_err(|e| format!("save fixture: {e}"))
    }
}

/// The paper's training job: a signature chosen on the training
/// devices, every training device contributing every open network, and
/// every fifth device held out (onboarded by signature only).
pub struct TrainingJob {
    pub signature: Vec<usize>,
    pub open: Vec<usize>,
    pub train_devices: Vec<usize>,
    pub heldout_devices: Vec<usize>,
}

impl TrainingJob {
    pub fn new(world: &World) -> Self {
        let (heldout_devices, train_devices): (Vec<usize>, Vec<usize>) =
            (0..world.n_devices()).partition(|d| d % HOLDOUT_EVERY == 0);
        let signature =
            MutualInfoSelector::default().select(&world.data.db, &train_devices, SIGNATURE_SIZE);
        let open = world.open_networks(&signature);
        Self {
            signature,
            open,
            train_devices,
            heldout_devices,
        }
    }

    /// Builds the unfitted training repository. `seed` orders the
    /// contributed rows, as devices upload in no fixed order.
    pub fn repository(&self, world: &World, seed: u64) -> CollaborativeRepository {
        let mut repo = world.empty_repository(&self.signature);
        for d in 0..world.n_devices() {
            repo.onboard_device(
                world.device_name(d),
                &world.signature_ms(d, &self.signature),
            )
            .expect("dataset devices have unique names and finite signatures");
        }
        let mut rows: Vec<(usize, usize)> = self
            .train_devices
            .iter()
            .flat_map(|&d| self.open.iter().map(move |&n| (d, n)))
            .collect();
        SplitMix::new(seed).shuffle(&mut rows);
        for (d, n) in rows {
            repo.contribute(
                world.device_name(d),
                &world.data.suite[n].network,
                world.data.db.latency(d, n),
            )
            .expect("simulated latencies are finite and positive");
        }
        repo
    }

    /// Held-out devices × open networks: the paper's accuracy grid.
    pub fn eval_grid(&self) -> Vec<(usize, usize)> {
        self.heldout_devices
            .iter()
            .flat_map(|&d| self.open.iter().map(move |&n| (d, n)))
            .collect()
    }
}

/// Mean absolute percentage error, in percent, of `(predicted, truth)`.
pub fn mape_pct(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (sum, n) = pairs.into_iter().fold((0.0, 0usize), |(s, n), (p, t)| {
        (s + ((p - t) / t).abs(), n + 1)
    });
    100.0 * sum / n.max(1) as f64
}

/// The MAPE of a fitted repository's in-process answers on `grid`.
pub fn repository_mape(
    world: &World,
    repo: &CollaborativeRepository,
    grid: &[(usize, usize)],
) -> f64 {
    mape_pct(grid.iter().map(|&(d, n)| {
        let predicted = repo
            .predict(world.device_name(d), &world.data.suite[n].network)
            .expect("grid devices are enrolled and the repository is fitted");
        (predicted, world.data.db.latency(d, n))
    }))
}
