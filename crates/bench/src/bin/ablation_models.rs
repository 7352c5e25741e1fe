//! Ablation: regression-model choice (§III-C).
//!
//! The paper reports that XGBoost "outperformed many other models,
//! including an LSTM-encoder followed by a fully-connected neural
//! network, a random-forest model, and k-nearest-neighbour models". This
//! driver reruns the Fig. 9 protocol (MIS signature, m = 10) with every
//! regressor in `gdcm-ml` and prints the comparison.
//!
//! ```sh
//! cargo run --release -p gdcm-bench --bin ablation_models
//! ```

#![forbid(unsafe_code)]

use gdcm_bench::DATASET_SEED;
use gdcm_core::hardware::HardwareRepr;
use gdcm_core::signature::{MutualInfoSelector, SignatureSelector};
use gdcm_core::{CostDataset, CostModelPipeline, PipelineConfig};
use gdcm_ml::metrics::{r2_score, rmse};
use gdcm_ml::{
    GbdtParams, GbdtRegressor, KnnRegressor, MlpParams, MlpRegressor, RandomForestRegressor,
    Regressor, RidgeRegressor,
};

fn main() {
    let mut run_report = gdcm_obs::RunReport::new("ablation_models");
    let data = CostDataset::paper(DATASET_SEED);
    let pipeline = CostModelPipeline::new(&data, PipelineConfig::default());
    let (train_devices, test_devices) = pipeline.device_split();

    let signature = MutualInfoSelector::default().select(&data.db, &train_devices, 10);
    let repr = HardwareRepr::Signature(signature.clone());
    let networks: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    let (x_train, y_train) = pipeline.build_rows(&repr, &train_devices, &networks);
    let (x_test, y_test) = pipeline.build_rows(&repr, &test_devices, &networks);
    eprintln!(
        "[rows: {} train / {} test, {} features]",
        x_train.n_rows(),
        x_test.n_rows(),
        x_train.n_cols()
    );

    println!("## Ablation — regression model choice (MIS signature, m = 10)\n");
    println!("| model | test R² | RMSE (ms) | train time |");
    println!("|---|---|---|---|");

    let mut rank: Vec<(String, f64)> = Vec::new();
    let mut row = |name: &str, preds: Vec<f32>, elapsed: std::time::Duration| {
        let r2 = r2_score(&y_test, &preds);
        let e = rmse(&y_test, &preds);
        println!("| {name} | {r2:.4} | {e:.1} | {elapsed:.1?} |");
        rank.push((name.to_string(), r2));
    };

    let t = std::time::Instant::now();
    let gbdt = GbdtRegressor::fit(&x_train, &y_train, &GbdtParams::default());
    row("GBDT (paper: XGBoost)", gbdt.predict(&x_test), t.elapsed());

    let t = std::time::Instant::now();
    let forest = RandomForestRegressor::fit(&x_train, &y_train, 100, 10, 0);
    row(
        "random forest (100 x depth 10)",
        forest.predict(&x_test),
        t.elapsed(),
    );

    let t = std::time::Instant::now();
    let knn = KnnRegressor::fit(&x_train, &y_train, 5);
    row("kNN (k = 5)", knn.predict(&x_test), t.elapsed());

    let t = std::time::Instant::now();
    let ridge = RidgeRegressor::fit(&x_train, &y_train, 1.0);
    row("ridge regression", ridge.predict(&x_test), t.elapsed());

    let t = std::time::Instant::now();
    let mlp = MlpRegressor::fit(
        &x_train,
        &y_train,
        &MlpParams {
            hidden1: 64,
            hidden2: 32,
            epochs: 30,
            ..MlpParams::default()
        },
    );
    row(
        "MLP (64-32, paper: LSTM+FC / MLP)",
        mlp.predict(&x_test),
        t.elapsed(),
    );

    rank.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!(
        "\nBest model: {} (paper: XGBoost wins the same comparison).",
        rank[0].0
    );
    run_report.set_dim("train_rows", x_train.n_rows() as u64);
    run_report.set_dim("test_rows", x_test.n_rows() as u64);
    run_report.set_dim("features", x_train.n_cols() as u64);
    for (name, r2) in &rank {
        run_report.set_metric(&format!("r2/{name}"), *r2);
    }
    match run_report.finalize_and_write() {
        Ok(path) => eprintln!("[ablation_models done; report: {}]", path.display()),
        Err(err) => eprintln!("[ablation_models done; report write failed: {err}]"),
    }
}
