//! Collaborative workload characterization (§V).
//!
//! Simulates the proposed global repository on the measured dataset:
//! devices join one at a time, each contributing its signature-set
//! latencies (its representation) plus measurements on a small fraction
//! of networks (training data). One shared cost model is retrained as the
//! repository grows and is evaluated on *all* networks for every enrolled
//! device — far beyond any single device's contribution.

use gdcm_ml::metrics::r2_score;
use gdcm_ml::{DenseMatrix, FrozenGbdt, GbdtParams, GbdtRegressor, Regressor};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::CostDataset;
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
    /// Regressor hyper-parameters.
    pub gbdt: GbdtParams,
    /// Retrain/evaluate every `eval_every` enrollments (1 = paper
    /// protocol; larger values trade resolution for speed).
    pub eval_every: usize,
}

impl Default for CollaborativeConfig {
    fn default() -> Self {
        Self {
            signature_size: 10,
            iterations: 50,
            contribution_fraction: 0.1,
            seed: 0,
            gbdt: GbdtParams::default(),
            eval_every: 1,
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

/// Runs the §V simulation and returns the growth curve.
///
/// The signature set is chosen once with MIS over the full dataset (the
/// repository bootstraps from whatever measurements exist); each enrolled
/// device then contributes its signature latencies plus
/// `contribution_fraction` of the remaining networks, randomly chosen per
/// device.
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
    let signature = MutualInfoSelector::default().select(
        &data.db,
        &(0..data.n_devices()).collect::<Vec<_>>(),
        config.signature_size,
    );
    let open_networks: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    let per_device =
        ((open_networks.len() as f64 * config.contribution_fraction).round() as usize).max(1);

    let mut order: Vec<usize> = (0..data.n_devices()).collect();
    order.shuffle(&mut rng);
    order.truncate(config.iterations);

    let width = data.encoder.len() + signature.len();
    let mut x_train = DenseMatrix::with_capacity(config.iterations * per_device, width);
    let mut y_train: Vec<f32> = Vec::new();
    let mut enrolled: Vec<(usize, Vec<f32>)> = Vec::new(); // (device, hw repr)
    let mut curve = Vec::new();

    for (i, &device) in order.iter().enumerate() {
        // The device's representation: measured signature latencies.
        let hw: Vec<f32> = signature
            .iter()
            .map(|&n| data.db.latency(device, n) as f32)
            .collect();

        // Its training contribution: a random slice of the open networks.
        let mut contrib = open_networks.clone();
        contrib.shuffle(&mut rng);
        contrib.truncate(per_device);
        let mut row = Vec::with_capacity(width);
        for &n in &contrib {
            row.clear();
            row.extend_from_slice(data.encodings.row(n));
            row.extend_from_slice(&hw);
            x_train.push_row(&row);
            y_train.push(data.db.latency(device, n) as f32);
        }
        enrolled.push((device, hw));
        gdcm_obs::counter("collaborative/enrollments").incr();
        gdcm_obs::gauge("collaborative/repository_devices").set(enrolled.len() as f64);
        gdcm_obs::gauge("collaborative/repository_rows").set(y_train.len() as f64);
        if gdcm_obs::emitting() {
            gdcm_obs::event(
                "onboard",
                "collaborative/device",
                &[
                    ("device", gdcm_obs::FieldValue::U64(device as u64)),
                    ("enrolled", gdcm_obs::FieldValue::U64(enrolled.len() as u64)),
                    ("rows", gdcm_obs::FieldValue::U64(y_train.len() as u64)),
                ],
            );
        }

        let is_last = i + 1 == order.len();
        if (i + 1) % config.eval_every != 0 && !is_last {
            continue;
        }

        let model = fit_frozen(&x_train, &y_train, &config.gbdt);
        let avg_r2 = average_device_r2(data, &model, &enrolled, &open_networks);
        if gdcm_obs::emitting() {
            gdcm_obs::series("collaborative/avg_r2").push(avg_r2);
        }
        curve.push(CollaborativePoint {
            n_devices: i + 1,
            avg_r2,
            n_rows: y_train.len(),
        });
    }
    curve
}

/// Fits a GBDT and compiles it on the grid it was trained on, so every
/// prediction below runs the frozen trees the serving paths run.
fn fit_frozen(x: &DenseMatrix, y: &[f32], gbdt: &GbdtParams) -> FrozenGbdt {
    let (model, grid) = GbdtRegressor::fit_with_grid(x, y, gbdt);
    FrozenGbdt::freeze(&model, &grid)
        .expect("freshly fitted model freezes on its own training grid")
}

/// Mean per-device R² of `model` over the open networks.
fn average_device_r2(
    data: &CostDataset,
    model: &FrozenGbdt,
    enrolled: &[(usize, Vec<f32>)],
    networks: &[usize],
) -> f64 {
    let width = data.encoder.len() + enrolled[0].1.len();
    let mut row = Vec::with_capacity(width);
    let mut total = 0.0;
    for (device, hw) in enrolled {
        let mut actual = Vec::with_capacity(networks.len());
        let mut predicted = Vec::with_capacity(networks.len());
        for &n in networks {
            row.clear();
            row.extend_from_slice(data.encodings.row(n));
            row.extend_from_slice(hw);
            predicted.push(model.predict_row(&row));
            actual.push(data.db.latency(*device, n) as f32);
        }
        total += r2_score(&actual, &predicted);
    }
    total / enrolled.len() as f64
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
        let model = fit_frozen(&x, &y, gbdt);
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
/// (including `target`) each contribute the signature latencies plus
/// `contribution` further measurements; the shared model is evaluated on
/// the target device across all non-signature networks. Returns the
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
    let signature = MutualInfoSelector::default().select(
        &data.db,
        &(0..data.n_devices()).collect::<Vec<_>>(),
        config.signature_size,
    );
    let open_networks: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();

    // Random cohort that always includes the target device.
    let mut cohort: Vec<usize> = (0..data.n_devices()).filter(|&d| d != target).collect();
    cohort.shuffle(&mut rng);
    cohort.truncate(n_devices.saturating_sub(1));
    cohort.push(target);

    let width = data.encoder.len() + signature.len();
    let mut x = DenseMatrix::with_capacity(cohort.len() * contribution, width);
    let mut y = Vec::new();
    let mut row = Vec::with_capacity(width);
    let mut target_hw = Vec::new();
    for &device in &cohort {
        let hw: Vec<f32> = signature
            .iter()
            .map(|&n| data.db.latency(device, n) as f32)
            .collect();
        if device == target {
            target_hw = hw.clone();
        }
        let mut contrib = open_networks.clone();
        contrib.shuffle(&mut rng);
        contrib.truncate(contribution.max(1));
        for &n in &contrib {
            row.clear();
            row.extend_from_slice(data.encodings.row(n));
            row.extend_from_slice(&hw);
            x.push_row(&row);
            y.push(data.db.latency(device, n) as f32);
        }
    }

    let model = fit_frozen(&x, &y, &config.gbdt);
    let mut actual = Vec::with_capacity(open_networks.len());
    let mut predicted = Vec::with_capacity(open_networks.len());
    for &n in &open_networks {
        row.clear();
        row.extend_from_slice(data.encodings.row(n));
        row.extend_from_slice(&target_hw);
        predicted.push(model.predict_row(&row));
        actual.push(data.db.latency(target, n) as f32);
    }
    r2_score(&actual, &predicted)
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
            eval_every: 1,
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
    fn eval_every_thins_the_curve_but_keeps_last_point() {
        let data = CostDataset::tiny(11, 10, 20);
        let config = CollaborativeConfig {
            signature_size: 3,
            iterations: 15,
            contribution_fraction: 0.2,
            gbdt: fast_gbdt(),
            eval_every: 4,
            ..CollaborativeConfig::default()
        };
        let curve = simulate_collaborative(&data, &config);
        let counts: Vec<usize> = curve.iter().map(|p| p.n_devices).collect();
        assert_eq!(counts, vec![4, 8, 12, 15]);
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
