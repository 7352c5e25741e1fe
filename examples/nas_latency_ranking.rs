//! Hardware-aware NAS use case (paper §I, §VI): rank candidate
//! architectures by predicted latency on a target phone *without ever
//! running them on it* — only the 10 signature networks are measured.
//!
//! ```sh
//! cargo run --release --example nas_latency_ranking
//! ```

#![forbid(unsafe_code)]

use generalizable_dnn_cost_models::core::hardware::HardwareRepr;
use generalizable_dnn_cost_models::core::signature::{MutualInfoSelector, SignatureSelector};
use generalizable_dnn_cost_models::core::{
    CostDataset, CostModelPipeline, EncoderConfig, NetworkEncoder, PipelineConfig,
};
use generalizable_dnn_cost_models::gen::NamedNetwork;
use generalizable_dnn_cost_models::gen::{RandomNetworkGenerator, SearchSpace};
use generalizable_dnn_cost_models::ml::metrics::spearman;
use generalizable_dnn_cost_models::ml::{DenseMatrix, Regressor};
use generalizable_dnn_cost_models::sim::{measure, LatencyEngine, MeasurementConfig};

fn main() {
    // The shared repository: measured dataset + trained signature model.
    // Ranking *fresh* architectures benefits from the encoder's optional
    // network-level summary features (total MACs/params/bytes/depth), so
    // this application enables them — see `EncoderConfig::include_summary`.
    println!("building dataset and training the cost model ...");
    let mut data = CostDataset::paper(2020);
    let encoder = NetworkEncoder::fit(
        data.suite.iter().map(|n| &n.network),
        EncoderConfig {
            max_layers: 64,
            include_summary: true,
            ..EncoderConfig::default()
        },
    );
    let mut encodings = DenseMatrix::with_capacity(data.suite.len(), encoder.len());
    for n in &data.suite {
        encodings.push_row(&encoder.encode(&n.network));
    }
    data.encoder = encoder;
    data.encodings = encodings;
    let pipeline = CostModelPipeline::new(&data, PipelineConfig::default());

    let (train_devices, test_devices) = pipeline.device_split();
    let signature = MutualInfoSelector::default().select(&data.db, &train_devices, 10);
    let repr = HardwareRepr::Signature(signature);
    let model = pipeline
        .train_artifacts(&repr, &train_devices, &test_devices, "MIS")
        .frozen;

    // The NAS target: an unseen phone. Its only characterization cost is
    // measuring the 10 signature networks (30 runs each).
    let target = &data.devices[test_devices[0]];
    println!(
        "target device: {} ({}, {:.1} GHz, {} GB) — unseen during training",
        target.model, target.core.name, target.freq_ghz, target.dram_gb
    );
    let hw = repr.encode(target, &data.db);

    // 200 fresh candidate architectures from the mobile search space —
    // none of them exist in the training suite.
    let mut generator = RandomNetworkGenerator::new(SearchSpace::mobile(), 777);
    let engine = LatencyEngine::new();
    let mcfg = MeasurementConfig { runs: 30, seed: 9 };
    let mut candidates = Vec::new();
    for i in 0..200 {
        let network = generator.generate(format!("cand_{i:03}")).expect("valid");
        let mut row = data.encoder.encode(&network);
        row.extend_from_slice(&hw);
        // Latency can never be negative; clamp the regressor's raw output.
        let predicted = model.predict_row(&row).max(0.5);
        // Ground truth (what the NAS loop would only learn by deploying):
        let named = NamedNetwork {
            index: 10_000 + i,
            network,
            predesigned: false,
        };
        let actual = measure(&engine, &named, target, &mcfg).mean_ms;
        candidates.push((named, predicted as f64, actual));
    }

    // How good is the ranking the NAS search would consume?
    let predicted: Vec<f32> = candidates.iter().map(|c| c.1 as f32).collect();
    let actual: Vec<f32> = candidates.iter().map(|c| c.2 as f32).collect();
    let rho = spearman(&actual, &predicted);
    println!("\nranked 200 unseen candidates; Spearman(predicted, actual) = {rho:.3}");

    candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    println!("\nfastest 5 candidates by *predicted* latency:");
    println!(
        "  {:<10} {:>10} {:>10} {:>9}",
        "candidate", "pred (ms)", "true (ms)", "MACs (M)"
    );
    for (named, pred, actual) in candidates.iter().take(5) {
        println!(
            "  {:<10} {:>10.1} {:>10.1} {:>9.0}",
            named.name(),
            pred,
            actual,
            named.network.cost().mmacs()
        );
    }
    println!("\nslowest 3 candidates by *predicted* latency:");
    for (named, pred, actual) in candidates.iter().rev().take(3) {
        println!(
            "  {:<10} {:>10.1} {:>10.1} {:>9.0}",
            named.name(),
            pred,
            actual,
            named.network.cost().mmacs()
        );
    }
    println!(
        "\ntotal on-device characterization cost: 10 signature measurements,\n\
         instead of 200 candidate deployments."
    );
}
