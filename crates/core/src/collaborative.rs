//! Collaborative workload characterization (§V).
//!
//! Simulates the proposed global repository on the measured dataset:
//! devices join one at a time, each contributing its signature-set
//! latencies (its representation) plus measurements on a small fraction
//! of networks (training data). One shared cost model is retrained as the
//! repository grows and is evaluated on *all* networks for every enrolled
//! device — far beyond any single device's contribution.
//!
//! The repository is the [`CollaborativeRepository`] the server runs:
//! each device is onboarded with its signature latencies and contributes
//! its measurements, the repository fits, and every score comes from its
//! one scoring path, [`CollaborativeRepository::predict_encoded`] (behind
//! `predict`), on the dataset's precomputed encodings.

use gdcm_ml::metrics::r2_score;
use gdcm_ml::{DenseMatrix, FrozenGbdt, GbdtParams, GbdtRegressor, Regressor};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::CostDataset;
use crate::repository::{CollaborativeRepository, RepositoryConfig};
use crate::signature::{MutualInfoSelector, SignatureSelector};

/// Configuration of the collaborative simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollaborativeConfig {
    /// Signature-set size (paper: 10, chosen with MIS).
    pub signature_size: usize,
    /// Number of devices enrolled over the simulation (paper: 50).
    pub iterations: usize,
    /// Fraction of (non-signature) networks each device contributes as
    /// training measurements (paper sweeps 0.1–0.3).
    pub contribution_fraction: f64,
    /// Shuffling seed for enrollment order and per-device contributions.
    pub seed: u64,
    /// Regressor hyper-parameters of the repository's fits.
    pub gbdt: GbdtParams,
}

impl Default for CollaborativeConfig {
    fn default() -> Self {
        Self {
            signature_size: 10,
            iterations: 50,
            contribution_fraction: 0.1,
            seed: 0,
            gbdt: GbdtParams::default(),
        }
    }
}

/// One point of the repository-growth curve (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollaborativePoint {
    /// Devices enrolled so far.
    pub n_devices: usize,
    /// Mean per-device R² over all (non-signature) networks.
    pub avg_r2: f64,
    /// Training rows accumulated in the repository.
    pub n_rows: usize,
}

/// The signature set, chosen once with MIS over the whole fleet (the
/// repository bootstraps from whatever measurements exist), and the
/// networks it leaves open for contributions and evaluation.
fn signature_and_open_networks(
    data: &CostDataset,
    signature_size: usize,
) -> (Vec<usize>, Vec<usize>) {
    let signature = MutualInfoSelector::default().select(
        &data.db,
        &(0..data.n_devices()).collect::<Vec<_>>(),
        signature_size,
    );
    let open_networks = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    (signature, open_networks)
}

/// An empty repository over the dataset's encoder that fits from its
/// first row.
fn empty_repository(data: &CostDataset, config: &CollaborativeConfig) -> CollaborativeRepository {
    let repo_config = RepositoryConfig {
        gbdt: config.gbdt,
        min_rows: 1,
    };
    CollaborativeRepository::new(data.encoder.clone(), config.signature_size, repo_config)
}

/// Onboards `device`, named by its dataset index, with its measured
/// signature latencies, then contributes its measurements on `networks`.
fn enroll(
    repo: &mut CollaborativeRepository,
    data: &CostDataset,
    device: usize,
    signature: &[usize],
    networks: &[usize],
) {
    let name = device.to_string();
    let latencies: Vec<f64> = signature
        .iter()
        .map(|&n| data.db.latency(device, n))
        .collect();
    repo.onboard_device(name.as_str(), &latencies)
        .expect("each device is enrolled once, with measured latencies");
    for &n in networks {
        repo.contribute(&name, &data.suite[n].network, data.db.latency(device, n))
            .expect("measured latencies are finite and positive");
    }
}

/// R² of the repository's predictions for an enrolled `device` over
/// `networks`, scored on the dataset's encodings of them (the bits
/// `predict` would encode).
fn device_r2(
    repo: &CollaborativeRepository,
    data: &CostDataset,
    device: usize,
    networks: &[usize],
) -> f64 {
    let signature = repo
        .device_signature(&device.to_string())
        .expect("the device is enrolled");
    let (actual, predicted): (Vec<f32>, Vec<f32>) = networks
        .iter()
        .map(|&n| {
            let predicted = repo
                .predict_encoded(data.encodings.row(n), signature)
                .expect("the repository is fitted");
            (data.db.latency(device, n) as f32, predicted as f32)
        })
        .unzip();
    r2_score(&actual, &predicted)
}

/// Runs the §V simulation and returns the growth curve, one point per
/// enrolled device.
///
/// The signature set is chosen once with MIS over the full dataset; each
/// enrolled device then joins one [`CollaborativeRepository`] with its
/// signature latencies and contributes `contribution_fraction` of the
/// remaining networks, randomly chosen per device. After each
/// enrollment the repository refits on every row and is scored on the
/// open networks of every enrolled device.
///
/// # Panics
///
/// Panics when `iterations` exceeds the dataset's device count or the
/// contribution fraction is outside `(0, 1]`.
pub fn simulate_collaborative(
    data: &CostDataset,
    config: &CollaborativeConfig,
) -> Vec<CollaborativePoint> {
    assert!(
        config.iterations <= data.n_devices(),
        "cannot enroll {} devices from a fleet of {}",
        config.iterations,
        data.n_devices()
    );
    assert!(
        config.contribution_fraction > 0.0 && config.contribution_fraction <= 1.0,
        "contribution fraction must be in (0, 1]"
    );

    let _span = gdcm_obs::span!("collaborative/simulate");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (signature, open_networks) = signature_and_open_networks(data, config.signature_size);
    let per_device =
        ((open_networks.len() as f64 * config.contribution_fraction).round() as usize).max(1);

    let mut order: Vec<usize> = (0..data.n_devices()).collect();
    order.shuffle(&mut rng);
    order.truncate(config.iterations);

    let mut repo = empty_repository(data, config);
    let mut curve = Vec::with_capacity(order.len());
    for &device in &order {
        // The device's contribution: a random slice of the open networks.
        let mut contrib = open_networks.clone();
        contrib.shuffle(&mut rng);
        contrib.truncate(per_device);
        enroll(&mut repo, data, device, &signature, &contrib);
        let (n_devices, n_rows) = (repo.n_devices(), repo.n_rows());
        gdcm_obs::counter("collaborative/enrollments").incr();
        gdcm_obs::gauge("collaborative/repository_devices").set(n_devices as f64);
        gdcm_obs::gauge("collaborative/repository_rows").set(n_rows as f64);
        if gdcm_obs::emitting() {
            gdcm_obs::event(
                "onboard",
                "collaborative/device",
                &[
                    ("device", gdcm_obs::FieldValue::U64(device as u64)),
                    ("enrolled", gdcm_obs::FieldValue::U64(n_devices as u64)),
                    ("rows", gdcm_obs::FieldValue::U64(n_rows as u64)),
                ],
            );
        }

        repo.fit()
            .expect("every enrolled device contributes at least one row");
        let avg_r2 = order[..n_devices]
            .iter()
            .map(|&d| device_r2(&repo, data, d, &open_networks))
            .sum::<f64>()
            / n_devices as f64;
        if gdcm_obs::emitting() {
            gdcm_obs::series("collaborative/avg_r2").push(avg_r2);
        }
        curve.push(CollaborativePoint {
            n_devices,
            avg_r2,
            n_rows,
        });
    }
    curve
}

/// One point of the isolated-training curve (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsolatedPoint {
    /// Networks in the device-specific training set.
    pub n_networks: usize,
    /// R² on all suite networks for this device.
    pub r2: f64,
}

/// Trains the *isolated* sequence of device-specific models of Fig. 13:
/// for each training-set size in `sizes`, fit a model on that many
/// (randomly ordered) networks measured **only on `device`**, with the
/// network encoding as the only feature, and evaluate on the full suite.
///
/// This baseline has no signature features, so it cannot live in a
/// [`CollaborativeRepository`]; it fits and scores the frozen trees the
/// repository would.
pub fn isolated_curve(
    data: &CostDataset,
    device: usize,
    sizes: &[usize],
    gbdt: &GbdtParams,
    seed: u64,
) -> Vec<IsolatedPoint> {
    let mut order: Vec<usize> = (0..data.n_networks()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let all_actual: Vec<f32> = (0..data.n_networks())
        .map(|n| data.db.latency(device, n) as f32)
        .collect();

    let mut curve = Vec::new();
    for &n_train in sizes {
        let n_train = n_train.clamp(1, data.n_networks());
        let train_nets = &order[..n_train];
        let mut x = DenseMatrix::with_capacity(n_train, data.encoder.len());
        let mut y = Vec::with_capacity(n_train);
        for &n in train_nets {
            x.push_row(data.encodings.row(n));
            y.push(data.db.latency(device, n) as f32);
        }
        let (model, grid) = GbdtRegressor::fit_with_grid(&x, &y, gbdt);
        let model = FrozenGbdt::freeze(&model, &grid)
            .expect("freshly fitted model freezes on its own training grid");
        let predicted: Vec<f32> = (0..data.n_networks())
            .map(|n| model.predict_row(data.encodings.row(n)))
            .collect();
        curve.push(IsolatedPoint {
            n_networks: n_train,
            r2: r2_score(&all_actual, &predicted),
        });
    }
    curve
}

/// The collaborative counterpart of Fig. 13: `n_devices` devices
/// (including `target`) each join one [`CollaborativeRepository`] with
/// their signature latencies and contribute `contribution` further
/// measurements (at least one); the fitted repository is evaluated on the
/// target device across all non-signature networks. Returns the
/// target-device R².
pub fn collaborative_for_device(
    data: &CostDataset,
    target: usize,
    n_devices: usize,
    contribution: usize,
    config: &CollaborativeConfig,
) -> f64 {
    assert!(n_devices <= data.n_devices(), "not enough devices");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (signature, open_networks) = signature_and_open_networks(data, config.signature_size);

    // Random cohort that always includes the target device.
    let mut cohort: Vec<usize> = (0..data.n_devices()).filter(|&d| d != target).collect();
    cohort.shuffle(&mut rng);
    cohort.truncate(n_devices.saturating_sub(1));
    cohort.push(target);

    let mut repo = empty_repository(data, config);
    for &device in &cohort {
        let mut contrib = open_networks.clone();
        contrib.shuffle(&mut rng);
        contrib.truncate(contribution.max(1));
        enroll(&mut repo, data, device, &signature, &contrib);
    }
    repo.fit()
        .expect("every enrolled device contributes at least one row");
    device_r2(&repo, data, target, &open_networks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_gbdt() -> GbdtParams {
        GbdtParams {
            n_estimators: 40,
            ..GbdtParams::default()
        }
    }

    #[test]
    fn collaborative_curve_grows_and_improves() {
        let data = CostDataset::tiny(11, 16, 30);
        let config = CollaborativeConfig {
            signature_size: 4,
            iterations: 20,
            contribution_fraction: 0.3,
            gbdt: fast_gbdt(),
            ..CollaborativeConfig::default()
        };
        let curve = simulate_collaborative(&data, &config);
        assert_eq!(curve.len(), 20);
        assert_eq!(curve[0].n_devices, 1);
        assert_eq!(curve[19].n_devices, 20);
        // Rows accumulate monotonically.
        for w in curve.windows(2) {
            assert!(w[1].n_rows > w[0].n_rows);
        }
        // The late-stage model should be decent on this easy dataset.
        let late = curve[19].avg_r2;
        assert!(late > 0.5, "late R² {late}");
    }

    #[test]
    fn isolated_curve_improves_with_more_networks() {
        let data = CostDataset::tiny(5, 20, 8);
        let sizes = [2, 10, 30, 42];
        let curve = isolated_curve(&data, 0, &sizes, &fast_gbdt(), 3);
        assert_eq!(curve.len(), 4);
        assert!(
            curve[3].r2 > curve[0].r2,
            "more data should help: {:?}",
            curve
        );
        assert!(curve[3].r2 > 0.6, "full curve should fit well: {:?}", curve);
    }

    #[test]
    fn collaborative_single_device_reaches_high_r2() {
        let data = CostDataset::tiny(13, 20, 30);
        let config = CollaborativeConfig {
            signature_size: 5,
            gbdt: fast_gbdt(),
            ..CollaborativeConfig::default()
        };
        let r2 = collaborative_for_device(&data, 0, 25, 8, &config);
        assert!(r2 > 0.5, "target-device R² {r2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = CostDataset::tiny(11, 8, 15);
        let config = CollaborativeConfig {
            signature_size: 3,
            iterations: 10,
            contribution_fraction: 0.25,
            gbdt: fast_gbdt(),
            ..CollaborativeConfig::default()
        };
        assert_eq!(
            simulate_collaborative(&data, &config),
            simulate_collaborative(&data, &config)
        );
    }

    #[test]
    #[should_panic(expected = "cannot enroll")]
    fn too_many_iterations_panic() {
        let data = CostDataset::tiny(11, 4, 5);
        let config = CollaborativeConfig {
            iterations: 50,
            ..CollaborativeConfig::default()
        };
        let _ = simulate_collaborative(&data, &config);
    }
}
