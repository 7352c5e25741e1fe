//! Factored fits are the dense fits.
//!
//! `CollaborativeRepository::fit` trains on the training set's two
//! column blocks (`TrainingSet::factored`). After each seeded history of
//! onboard / contribute / re-enroll, with devices that never contribute,
//! its model, per-round training RMSE and frozen arena must be bitwise
//! the ones a dense fit of `TrainingSet::matrix` plus a freeze gives, and
//! so must the grid: cut bits, constant flags and every row's code.

use gdcm_core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use gdcm_ml::{BinnedMatrix, FrozenGbdt, GbdtParams, GbdtRegressor};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const HISTORIES: u64 = 50;
const SIGNATURE_SIZE: usize = 3;
const TREES: usize = 30;
/// Devices that contribute rows.
const CONTRIBUTORS: [&str; 4] = ["pixel", "galaxy", "iphone", "moto"];
/// Devices onboarded that never contribute: their signatures are table
/// entries no row references.
const BYSTANDERS: [&str; 2] = ["nokia", "xperia"];

fn signature(rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..SIGNATURE_SIZE)
        .map(|_| rng.gen_range(0.5..80.0))
        .collect()
}

fn params(seed: u64) -> GbdtParams {
    GbdtParams {
        n_estimators: TREES,
        max_bins: [2, 16, 64, 256][seed as usize % 4],
        ..GbdtParams::default()
    }
}

/// One seeded history.
fn run_history(data: &CostDataset, seed: u64) -> CollaborativeRepository {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        SIGNATURE_SIZE,
        RepositoryConfig {
            gbdt: params(seed),
            min_rows: 1,
        },
    );
    for name in BYSTANDERS {
        repo.onboard_device(name, &signature(&mut rng)).unwrap();
    }
    for _ in 0..rng.gen_range(20..44) {
        let name = CONTRIBUTORS[rng.gen_range(0..CONTRIBUTORS.len())];
        let enrolled = repo.device_signature(name).is_some();
        match rng.gen_range(0..10) {
            0 if enrolled => repo.re_enroll(name, &signature(&mut rng)).unwrap(),
            _ if !enrolled => repo.onboard_device(name, &signature(&mut rng)).unwrap(),
            _ => {
                // Few networks, so rows share encodings.
                let network = rng.gen_range(0..data.n_networks().min(10));
                let ms = rng.gen_range(0.5..80.0);
                repo.contribute(name, &data.suite[network].network, ms)
                    .unwrap();
            }
        }
    }
    repo
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_grid(a: &BinnedMatrix, b: &BinnedMatrix, at: &str) {
    assert_eq!(a.n_features(), b.n_features(), "{at}");
    for f in 0..a.n_features() {
        assert_eq!(
            bits(a.cuts(f)),
            bits(b.cuts(f)),
            "{at}: cuts of feature {f}"
        );
        assert_eq!(a.is_constant(f), b.is_constant(f), "{at}: feature {f}");
        assert_eq!(a.feature_codes(f), b.feature_codes(f), "{at}: feature {f}");
    }
}

fn rmse_bits(model: &GbdtRegressor) -> Vec<u32> {
    bits(&model.training_log().unwrap().round_train_rmse)
}

fn assert_same_fit(
    (model, grid): &(GbdtRegressor, std::sync::Arc<BinnedMatrix>),
    (want, want_grid): &(GbdtRegressor, std::sync::Arc<BinnedMatrix>),
    at: &str,
) {
    assert_eq!(model, want, "{at}: model");
    assert_eq!(rmse_bits(model), rmse_bits(want), "{at}: training RMSE");
    assert_same_grid(grid, want_grid, at);
}

#[test]
fn factored_fits_are_the_dense_fits() {
    let data = CostDataset::tiny(29, 6, 4);
    for seed in 0..HISTORIES {
        let mut repo = run_history(&data, seed);
        let gbdt = params(seed);
        let train = repo.training_set().clone();
        let x = train.matrix();
        let y = train.labels();

        let dense = GbdtRegressor::fit_with_grid(&x, y, &gbdt);
        let dense_frozen = FrozenGbdt::freeze(&dense.0, &dense.1).unwrap();
        let factored = GbdtRegressor::fit_factored(&train.factored(), y, &gbdt);
        assert_same_fit(&factored, &dense, &format!("seed {seed}, cold"));

        repo.fit().unwrap();
        let model = repo.model().unwrap();
        assert_eq!(*model, dense.0, "seed {seed}");
        assert_eq!(rmse_bits(model), rmse_bits(&dense.0), "seed {seed}");
        let frozen = repo.frozen_model().unwrap();
        assert_eq!(frozen, &dense_frozen, "seed {seed}");
        for (f, cuts) in frozen.cut_grid().iter().enumerate() {
            assert_eq!(bits(cuts), bits(dense.1.cuts(f)), "seed {seed} feature {f}");
        }
    }
}
