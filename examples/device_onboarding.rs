//! Device onboarding deep-dive: how accuracy on a brand-new device
//! depends on the signature-selection method and signature size.
//!
//! ```sh
//! cargo run --release --example device_onboarding
//! ```

#![forbid(unsafe_code)]

use generalizable_dnn_cost_models::core::signature::{
    MutualInfoSelector, RandomSelector, SpearmanSelector,
};
use generalizable_dnn_cost_models::core::{CostDataset, CostModelPipeline, PipelineConfig};
use generalizable_dnn_cost_models::ml::GbdtParams;
use generalizable_dnn_cost_models::obs;

fn main() {
    let mut run_report = obs::RunReport::new("example_device_onboarding");
    println!("building the measured dataset ...");
    let data = CostDataset::paper(2020);

    println!(
        "\nonboarding cost = one latency measurement per signature network\n\
         (30 runs each, a few minutes on-device). Accuracy on unseen devices:\n"
    );
    println!("{:<6} {:>12} {:>12} {:>12}", "size", "RS", "MIS", "SCCS");

    for m in [2usize, 5, 10, 15] {
        let config = PipelineConfig {
            signature_size: m,
            gbdt: GbdtParams::default(),
            ..PipelineConfig::default()
        };
        let pipeline = CostModelPipeline::new(&data, config);
        let rs = pipeline.run_signature(&RandomSelector::new(3)).r2;
        let mis = pipeline.run_signature(&MutualInfoSelector::default()).r2;
        let sccs = pipeline.run_signature(&SpearmanSelector::default()).r2;
        println!("{m:<6} {rs:>12.3} {mis:>12.3} {sccs:>12.3}");
    }

    // What the chosen networks look like for the recommended setting.
    let pipeline = CostModelPipeline::new(&data, PipelineConfig::default());
    let report = pipeline.run_signature(&MutualInfoSelector::default());
    println!("\nrecommended onboarding kit (MIS, 10 networks):");
    for &n in &report.signature {
        let net = &data.suite[n];
        println!(
            "  {:<22} {:>7.0}M MACs, {:>3} layers",
            net.name(),
            net.network.cost().mmacs(),
            net.network.layer_count()
        );
    }
    println!(
        "\nmodel quality with this kit: R² = {:.3}, RMSE = {:.1} ms, MAPE = {:.1}%",
        report.r2, report.rmse_ms, report.mape_pct
    );

    run_report.set_dim("devices", data.n_devices() as u64);
    run_report.set_dim("networks", data.n_networks() as u64);
    run_report.set_metric("r2_mis_m10", report.r2);
    run_report.set_metric("rmse_ms_mis_m10", report.rmse_ms);
    if let Ok(path) = run_report.finalize_and_write() {
        eprintln!("[run report: {}]", path.display());
    }
}
