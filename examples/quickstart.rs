//! Quickstart: build a network, simulate a device, train a cost model,
//! and predict latency on an unseen device.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use generalizable_dnn_cost_models::core::signature::{MutualInfoSelector, SignatureSelector};
use generalizable_dnn_cost_models::core::{CostDataset, CostModelPipeline, PipelineConfig};
use generalizable_dnn_cost_models::gen::zoo;
use generalizable_dnn_cost_models::sim::{DevicePopulation, LatencyEngine};

fn main() {
    // 1. Networks are plain data structures with validated shapes.
    let net = zoo::mobilenet_v2(1.0).expect("zoo network is valid");
    let cost = net.cost();
    println!(
        "{}: {} nodes, {:.0}M MACs, {:.1}M parameters",
        net.name(),
        net.len(),
        cost.mmacs(),
        cost.total_params as f64 / 1e6
    );

    // 2. Simulate its latency on a few devices from the 105-device fleet.
    let fleet = DevicePopulation::paper(1);
    let engine = LatencyEngine::new();
    println!("\nnoise-free latency of {} on sample devices:", net.name());
    for device in fleet.devices.iter().take(5) {
        println!(
            "  {:<28} ({:>4.1} GHz {:>2} GB) -> {:>7.1} ms",
            device.model,
            device.freq_ghz,
            device.dram_gb,
            engine.latency_ms(&net, device)
        );
    }

    // 3. Build the full measured dataset (118 networks x 105 devices,
    //    mean of 30 runs each — the paper's 12,390-point database).
    println!("\ncollecting the full latency database ...");
    let data = CostDataset::paper(2020);
    println!(
        "dataset: {} networks x {} devices = {} measurements",
        data.n_networks(),
        data.n_devices(),
        data.db.len()
    );

    // 4. Train a generalizable cost model: hardware is represented by the
    //    measured latencies of a 10-network signature set chosen with
    //    mutual-information selection (MIS), exactly as in the paper.
    let pipeline = CostModelPipeline::new(&data, PipelineConfig::default());
    let selector = MutualInfoSelector::default();
    let report = pipeline.run_signature(&selector);
    println!(
        "\n{} cost model: R² = {:.3} on {} unseen-device test points (RMSE {:.1} ms)",
        selector.name(),
        report.r2,
        report.actual_ms.len(),
        report.rmse_ms
    );
    let sig_names: Vec<&str> = report
        .signature
        .iter()
        .map(|&n| data.suite[n].name())
        .collect();
    println!("signature set: {sig_names:?}");

    // 5. Compare against the static-specification baseline the paper
    //    shows to be inadequate.
    let baseline = pipeline.run_static();
    println!(
        "static-spec baseline: R² = {:.3} — the signature representation wins by {:+.3}",
        baseline.r2,
        report.r2 - baseline.r2
    );
}
