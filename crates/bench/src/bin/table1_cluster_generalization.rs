//! Table I: adversarial cluster splits.
//!
//! Prints the experiment's Markdown section; run `all_experiments` to
//! regenerate the full `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

use gdcm_bench::{experiments, record_dataset_dims, run_reported, DATASET_SEED};
use gdcm_core::CostDataset;

fn main() {
    run_reported("table1_cluster_generalization", |report| {
        let data = CostDataset::paper(DATASET_SEED);
        record_dataset_dims(report, &data);
        experiments::table1(&data)
    });
}
