//! The paper's Section V workflow, end to end: a collaborative latency
//! repository that many phone owners contribute to and everyone queries.
//!
//! ```sh
//! cargo run --release --example collaborative_repository
//! ```

#![forbid(unsafe_code)]

use generalizable_dnn_cost_models::core::signature::{MutualInfoSelector, SignatureSelector};
use generalizable_dnn_cost_models::core::{CollaborativeRepository, CostDataset, RepositoryConfig};
use generalizable_dnn_cost_models::ml::metrics::r2_score;

fn main() {
    // The "world": simulated phones and the 118-network benchmark suite.
    println!("simulating the device fleet and benchmark suite ...");
    let data = CostDataset::paper(2020);

    // Everyone agrees on a 10-network signature set (here: chosen with
    // MIS over the first few seed devices' public measurements).
    let seed_devices: Vec<usize> = (0..20).collect();
    let signature = MutualInfoSelector::default().select(&data.db, &seed_devices, 10);
    println!(
        "agreed signature set: {:?}",
        signature
            .iter()
            .map(|&n| data.suite[n].name())
            .collect::<Vec<_>>()
    );

    let mut repo = CollaborativeRepository::new(
        data.encoder.clone(),
        signature.len(),
        RepositoryConfig::default(),
    );

    // 40 phone owners enroll. Each measures the signature set (their
    // device's representation) and donates measurements on 12 more
    // networks — about 10% of the suite.
    let open: Vec<usize> = (0..data.n_networks())
        .filter(|n| !signature.contains(n))
        .collect();
    for d in 0..40 {
        let device = &data.devices[d];
        let sig_lat: Vec<f64> = signature.iter().map(|&n| data.db.latency(d, n)).collect();
        repo.onboard_device(device.model.clone(), &sig_lat)
            .expect("signature length matches");
        for &n in open.iter().cycle().skip(d * 7).step_by(9).take(12) {
            repo.contribute(&device.model, &data.suite[n].network, data.db.latency(d, n))
                .expect("device enrolled");
        }
    }
    println!(
        "repository: {} devices enrolled, {} contributed measurements",
        repo.n_devices(),
        repo.n_rows()
    );

    repo.fit().expect("enough rows to fit");

    // A 41st phone appears. It measures ONLY the signature set, then gets
    // latency predictions for the entire suite.
    let newcomer = 63;
    let device = &data.devices[newcomer];
    println!(
        "\nnew device joins: {} ({}, {:.1} GHz, {} GB)",
        device.model, device.core.name, device.freq_ghz, device.dram_gb
    );
    let sig_lat: Vec<f64> = signature
        .iter()
        .map(|&n| data.db.latency(newcomer, n))
        .collect();

    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for &n in &open {
        actual.push(data.db.latency(newcomer, n) as f32);
        predicted.push(
            repo.predict_for_new_device(&sig_lat, &data.suite[n].network)
                .expect("model fitted") as f32,
        );
    }
    println!(
        "predicted {} networks from 10 measurements: R² = {:.3}",
        open.len(),
        r2_score(&actual, &predicted)
    );

    println!("\nsample predictions for the newcomer:");
    println!(
        "  {:<22} {:>10} {:>10}",
        "network", "pred (ms)", "true (ms)"
    );
    for &n in open.iter().take(8) {
        let p = repo
            .predict_for_new_device(&sig_lat, &data.suite[n].network)
            .expect("model fitted");
        println!(
            "  {:<22} {:>10.1} {:>10.1}",
            data.suite[n].name(),
            p,
            data.db.latency(newcomer, n)
        );
    }
    println!(
        "\ncharacterizing this phone in isolation would need ~100+ measurements\n\
         for the same accuracy (paper Fig. 13: an ~11x reduction)."
    );
}
