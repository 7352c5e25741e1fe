//! Fig. 9: RS/MIS/SCCS signature sets, m=10.
//!
//! Prints the experiment's Markdown section; run `all_experiments` to
//! regenerate the full `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

use gdcm_bench::{experiments, record_dataset_dims, run_reported, DATASET_SEED};
use gdcm_core::CostDataset;

fn main() {
    run_reported("fig09_signature_methods", |report| {
        let data = CostDataset::paper(DATASET_SEED);
        record_dataset_dims(report, &data);
        let section = experiments::fig09(&data);
        // The pipeline published each method's final scores as gauges;
        // promote them to the report's headline metrics.
        for method in ["RS", "MIS", "SCCS"] {
            if let Some(r2) = gdcm_obs::gauge(&format!("pipeline/r2/{method}")).get() {
                report.set_metric(&format!("r2_{}", method.to_lowercase()), r2);
            }
            if let Some(rmse) = gdcm_obs::gauge(&format!("pipeline/rmse_ms/{method}")).get() {
                report.set_metric(&format!("rmse_ms_{}", method.to_lowercase()), rmse);
            }
        }
        section
    });
}
